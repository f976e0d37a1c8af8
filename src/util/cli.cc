#include "util/cli.hh"

#include <charconv>
#include <cstring>

namespace pmtest::util
{

CliParser::CliParser(std::string tool, std::string positionals)
    : tool_(std::move(tool)), positionals_(std::move(positionals))
{
}

void
CliParser::addFlag(const char *name, bool *out, const char *help)
{
    Spec spec;
    spec.name = name;
    spec.kind = Kind::Flag;
    spec.help = help;
    spec.boolOut = out;
    specs_.push_back(std::move(spec));
}

void
CliParser::addSize(const char *name, size_t *out, const char *help,
                   size_t clamp_min, size_t max_value)
{
    Spec spec;
    spec.name = name;
    spec.kind = Kind::Size;
    spec.help = help;
    spec.sizeOut = out;
    spec.clampMin = clamp_min;
    spec.maxValue = max_value;
    specs_.push_back(std::move(spec));
}

void
CliParser::addString(const char *name, std::string *out,
                     const char *help, const char *placeholder)
{
    Spec spec;
    spec.name = name;
    spec.kind = Kind::String;
    spec.help = help;
    spec.placeholder = placeholder;
    spec.stringOut = out;
    specs_.push_back(std::move(spec));
}

void
CliParser::addOptionalString(const char *name, bool *present,
                             std::string *out, const char *help)
{
    Spec spec;
    spec.name = name;
    spec.kind = Kind::OptionalString;
    spec.help = help;
    spec.boolOut = present;
    spec.stringOut = out;
    specs_.push_back(std::move(spec));
}

void
CliParser::addChoice(const char *name, int *out,
                     std::vector<CliChoice> choices, const char *help)
{
    Spec spec;
    spec.name = name;
    spec.kind = Kind::Choice;
    spec.help = help;
    spec.choiceOut = out;
    spec.choices = std::move(choices);
    specs_.push_back(std::move(spec));
}

void
CliParser::positionalCount(size_t min, size_t max)
{
    minPositionals_ = min;
    maxPositionals_ = max;
}

std::string
CliParser::usageToken(const Spec &spec) const
{
    switch (spec.kind) {
      case Kind::Flag:
        return "[" + spec.name + "]";
      case Kind::Size:
        return "[" + spec.name + "=N]";
      case Kind::String:
        return "[" + spec.name + "=" + spec.placeholder + "]";
      case Kind::OptionalString:
        return "[" + spec.name + "[=FILE]]";
      case Kind::Choice: {
        std::string token = "[" + spec.name + "=";
        for (size_t i = 0; i < spec.choices.size(); i++) {
            if (i)
                token += "|";
            token += spec.choices[i].name;
        }
        return token + "]";
      }
    }
    return spec.name;
}

void
CliParser::printUsage(std::FILE *out) const
{
    std::string line = "usage: " + tool_;
    const std::string indent(7 + tool_.size() + 1, ' ');
    size_t column = line.size();
    std::fputs(line.c_str(), out);
    const auto emit = [&](const std::string &token) {
        // Wrap at ~72 columns, aligned under the first flag.
        if (column + 1 + token.size() > 72 && column > indent.size()) {
            std::fprintf(out, "\n%s%s", indent.c_str(),
                         token.c_str());
            column = indent.size() + token.size();
        } else {
            std::fprintf(out, " %s", token.c_str());
            column += 1 + token.size();
        }
    };
    for (const auto &spec : specs_)
        emit(usageToken(spec));
    if (!positionals_.empty())
        emit(positionals_);
    std::fputc('\n', out);
}

void
CliParser::printHelp(std::FILE *out) const
{
    printUsage(out);
    if (specs_.empty())
        return;
    std::fputc('\n', out);
    for (const auto &spec : specs_) {
        std::string token = usageToken(spec);
        // Strip the optional-flag brackets in the table rendering.
        token = token.substr(1, token.size() - 2);
        std::fprintf(out, "  %-28s %s\n", token.c_str(), spec.help);
    }
}

CliStatus
CliParser::fail(const std::string &message) const
{
    std::fprintf(stderr, "%s\n", message.c_str());
    printUsage(stderr);
    return CliStatus::Error;
}

CliStatus
CliParser::usageError(const std::string &message) const
{
    return fail(message);
}

CliStatus
CliParser::parse(int argc, char **argv,
                 std::vector<std::string> *positionals)
{
    if (argc > 0 && argv[0] && argv[0][0] != '\0')
        tool_ = argv[0];

    size_t positional_count = 0;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp(stdout);
            return CliStatus::Help;
        }
        if (arg.empty() || arg[0] != '-') {
            positional_count++;
            if (positional_count > maxPositionals_)
                return fail("unexpected argument '" + arg + "'");
            if (positionals)
                positionals->push_back(arg);
            continue;
        }

        const Spec *matched = nullptr;
        std::string value;
        bool has_value = false;
        for (const auto &spec : specs_) {
            if (arg == spec.name) {
                matched = &spec;
                break;
            }
            if (arg.size() > spec.name.size() + 1 &&
                arg.compare(0, spec.name.size(), spec.name) == 0 &&
                arg[spec.name.size()] == '=') {
                matched = &spec;
                value = arg.substr(spec.name.size() + 1);
                has_value = true;
                break;
            }
            // "--flag=" (empty value) must name the flag in the
            // diagnostic, not fall through to "unknown option".
            if (arg == spec.name + "=") {
                matched = &spec;
                has_value = true;
                break;
            }
        }
        if (!matched)
            return fail("unknown option '" + arg + "'");

        const Spec &spec = *matched;
        switch (spec.kind) {
          case Kind::Flag:
            if (has_value)
                return fail(spec.name + " takes no value");
            *spec.boolOut = true;
            break;
          case Kind::Size: {
            if (!has_value || value.empty())
                return fail("invalid value for " + spec.name +
                            ": ''");
            size_t parsed = 0;
            const char *begin = value.c_str();
            const char *end = begin + value.size();
            const auto [ptr, ec] =
                std::from_chars(begin, end, parsed);
            if (ec != std::errc{} || ptr != end)
                return fail("invalid value for " + spec.name + ": '" +
                            value + "'");
            if (parsed > spec.maxValue)
                return fail("invalid value for " + spec.name + ": '" +
                            value + "' (max " +
                            std::to_string(spec.maxValue) + ")");
            *spec.sizeOut = parsed < spec.clampMin ? spec.clampMin
                                                   : parsed;
            break;
          }
          case Kind::String:
            if (!has_value || value.empty())
                return fail(spec.name + " needs a value");
            *spec.stringOut = value;
            break;
          case Kind::OptionalString:
            if (has_value && value.empty())
                return fail(spec.name +
                            " needs a value (or omit '=')");
            *spec.boolOut = true;
            if (has_value)
                *spec.stringOut = value;
            break;
          case Kind::Choice: {
            const CliChoice *hit = nullptr;
            if (has_value) {
                for (const auto &choice : spec.choices)
                    if (value == choice.name)
                        hit = &choice;
            }
            if (!hit) {
                std::string names;
                for (const auto &choice : spec.choices) {
                    if (!names.empty())
                        names += ", ";
                    names += choice.name;
                }
                return fail("invalid value for " + spec.name + ": '" +
                            value + "' (choices: " + names + ")");
            }
            *spec.choiceOut = hit->value;
            break;
          }
        }
    }

    if (positional_count < minPositionals_) {
        printUsage(stderr);
        return CliStatus::Error;
    }
    return CliStatus::Ok;
}

int
cliExitCode(CliStatus status)
{
    return status == CliStatus::Help ? 0 : 2;
}

} // namespace pmtest::util
