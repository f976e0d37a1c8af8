#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench
{

void
Result::metric(std::string name, double value, std::string unit)
{
    metrics.push_back({std::move(name), value, std::move(unit)});
}

void
Result::note(std::string name, double value, std::string unit)
{
    extra.push_back({std::move(name), value, std::move(unit)});
}

void
Result::infoStr(std::string key, std::string value)
{
    info.emplace_back(std::move(key), jsonStr(value));
}

void
Result::infoNum(std::string key, double value)
{
    info.emplace_back(std::move(key), num(value));
}

void
Result::check(uint64_t items, uint64_t bad)
{
    attempted += items;
    failed += bad;
    if (bad != 0)
        correct = false;
}

size_t
LatencyHistogram::bucketOf(uint64_t ns)
{
    if (ns < kSub)
        return ns;
    const unsigned e = 63 - static_cast<unsigned>(__builtin_clzll(ns));
    const uint64_t sub = (ns >> (e - kSubBits)) & (kSub - 1);
    return (e - kSubBits + 1) * kSub + sub;
}

std::pair<double, double>
LatencyHistogram::bucketRange(size_t i)
{
    if (i < kSub)
        return {static_cast<double>(i), 1.0};
    const unsigned e = static_cast<unsigned>(i / kSub) + kSubBits - 1;
    const double width = std::ldexp(1.0, static_cast<int>(e - kSubBits));
    return {static_cast<double>(kSub + i % kSub) * width, width};
}

void
LatencyHistogram::add(uint64_t ns)
{
    counts_[bucketOf(ns)]++;
    total_++;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (size_t i = 0; i < counts_.size(); i++)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
}

double
LatencyHistogram::quantile(double q) const
{
    if (total_ == 0)
        return 0;
    const double rank = q * static_cast<double>(total_ - 1);
    double seen = 0;
    for (size_t i = 0; i < counts_.size(); i++) {
        const double n = static_cast<double>(counts_[i]);
        if (n > 0 && seen + n > rank) {
            const auto [lower, width] = bucketRange(i);
            return lower + width * (rank - seen + 0.5) / n;
        }
        seen += n;
    }
    return bucketRange(counts_.size() - 1).first;
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double
median(const std::vector<double> &samples)
{
    return quantile(samples, 0.5);
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

double
selfPeakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
die(const std::string &message)
{
    std::fprintf(stderr, "perfbench: %s\n", message.c_str());
    std::exit(2);
}

} // namespace perfbench
