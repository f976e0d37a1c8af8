/**
 * @file
 * Shared pieces of the perfbench binary: run options, the result
 * record every workload fills, and the sample statistics all metrics
 * are reduced with.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;  ///< per-layer (traced) run instead of end-to-end
    bool smoke = false;  ///< tiny input sizes, for the package's tests
    /** Tamper with the recorded known answer after set-up (tests). */
    bool corruptExpected = false;
    std::string workDir; ///< scratch directory for inputs and outputs
};

/** One named number with its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * What a workload run reports. `metrics` are the declared metrics
 * (end-to-end or per-layer, by run kind); `extra` are numbers printed
 * for people (span tables, workload-specific figures) that no gate
 * reads; `info` records how the numbers were taken.
 */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<Metric> extra;
    std::vector<std::pair<std::string, std::string>> info;

    void metric(std::string name, double value, std::string unit);
    void note(std::string name, double value, std::string unit);
    void infoStr(std::string key, std::string value);
    void infoNum(std::string key, double value);

    /** Count @p bad wrong items out of @p items checked. */
    void check(uint64_t items, uint64_t bad);
};

/**
 * Latency histogram in fixed memory: powers of two split into 64
 * linear sub-buckets (under 1.6 % relative error), so recording every
 * request of a run does not make the process grow with the run.
 */
class LatencyHistogram
{
  public:
    void add(uint64_t ns);
    void merge(const LatencyHistogram &other);
    uint64_t count() const { return total_; }

    /** Quantile in ns, interpolated within its bucket; 0 when empty. */
    double quantile(double q) const;

  private:
    static constexpr unsigned kSubBits = 6;
    static constexpr size_t kSub = size_t{1} << kSubBits;

    static size_t bucketOf(uint64_t ns);
    /** [lower bound, width) of bucket @p i. */
    static std::pair<double, double> bucketRange(size_t i);

    std::vector<uint64_t> counts_ = std::vector<uint64_t>(64 * kSub, 0);
    uint64_t total_ = 0;
};

/** Linear-interpolated quantile (q in [0,1]); 0 for no samples. */
double quantile(std::vector<double> samples, double q);

/** Median of @p samples. */
double median(const std::vector<double> &samples);

/** Render a double with every significant digit. */
std::string num(double v);

/** Quote and escape @p s as a JSON string. */
std::string jsonStr(const std::string &s);

/** Peak resident set of this process, in MiB. */
double selfPeakRssMb();

/** Abort the run with a message on stderr and exit status 2. */
[[noreturn]] void die(const std::string &message);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
