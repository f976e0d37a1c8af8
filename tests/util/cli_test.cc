/**
 * @file
 * The shared command-line parser: typed flags, strict numeric
 * parsing (no atol leniency), the --help contract, uniform usage
 * errors, and positional-count enforcement — the behavior every tool
 * delegates to.
 */

#include "util/cli.hh"

#include <gtest/gtest.h>

#include <vector>

namespace pmtest::util
{
namespace
{

/** Run @p parser over the arguments, argv[0] included. */
CliStatus
parse(CliParser &parser, std::vector<const char *> args,
      std::vector<std::string> *positionals = nullptr)
{
    args.insert(args.begin(), "tool");
    return parser.parse(static_cast<int>(args.size()),
                        const_cast<char **>(args.data()),
                        positionals);
}

TEST(CliTest, FlagSetsBool)
{
    bool quiet = false;
    CliParser cli("t");
    cli.addFlag("--quiet", &quiet, "h");
    EXPECT_EQ(parse(cli, {"--quiet"}), CliStatus::Ok);
    EXPECT_TRUE(quiet);
}

TEST(CliTest, FlagRejectsValue)
{
    bool quiet = false;
    CliParser cli("t");
    cli.addFlag("--quiet", &quiet, "h");
    testing::internal::CaptureStderr();
    EXPECT_EQ(parse(cli, {"--quiet=1"}), CliStatus::Error);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("--quiet takes no value"), std::string::npos);
    EXPECT_NE(err.find("usage: t"), std::string::npos);
}

TEST(CliTest, SizeParsesStrictly)
{
    size_t workers = 0;
    CliParser cli("t");
    cli.addSize("--workers", &workers, "h");
    EXPECT_EQ(parse(cli, {"--workers=12"}), CliStatus::Ok);
    EXPECT_EQ(workers, 12u);
}

TEST(CliTest, SizeRejectsMalformedValues)
{
    size_t n = 7;
    CliParser cli("t");
    cli.addSize("--n", &n, "h");
    for (const char *bad :
         {"--n=", "--n=abc", "--n=12x", "--n=1 2", "--n=-1",
          "--n=99999999999999999999999", "--n"}) {
        testing::internal::CaptureStderr();
        EXPECT_EQ(parse(cli, {bad}), CliStatus::Error) << bad;
        const std::string err =
            testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("invalid value for --n"),
                  std::string::npos)
            << bad;
        EXPECT_EQ(n, 7u) << bad << " wrote through on error";
    }
}

TEST(CliTest, SizeEnforcesMaxAndClampsMin)
{
    size_t port = 0;
    CliParser cli("t");
    cli.addSize("--port", &port, "h", 0, 65535);
    testing::internal::CaptureStderr();
    EXPECT_EQ(parse(cli, {"--port=70000"}), CliStatus::Error);
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "(max 65535)"),
              std::string::npos);

    size_t batch = 0;
    CliParser cli2("t");
    cli2.addSize("--batch", &batch, "h", 1);
    EXPECT_EQ(parse(cli2, {"--batch=0"}), CliStatus::Ok);
    EXPECT_EQ(batch, 1u) << "0 clamps up to 1";
}

TEST(CliTest, StringNeedsValue)
{
    std::string out;
    CliParser cli("t");
    cli.addString("--json", &out, "h");
    EXPECT_EQ(parse(cli, {"--json=a.json"}), CliStatus::Ok);
    EXPECT_EQ(out, "a.json");
    testing::internal::CaptureStderr();
    EXPECT_EQ(parse(cli, {"--json="}), CliStatus::Error);
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "--json needs a value"),
              std::string::npos);
}

TEST(CliTest, OptionalStringTracksPresence)
{
    bool present = false;
    std::string out = "-";
    CliParser cli("t");
    cli.addOptionalString("--fix-hints", &present, &out, "h");
    EXPECT_EQ(parse(cli, {"--fix-hints"}), CliStatus::Ok);
    EXPECT_TRUE(present);
    EXPECT_EQ(out, "-") << "bare flag keeps the default";

    present = false;
    EXPECT_EQ(parse(cli, {"--fix-hints=h.json"}), CliStatus::Ok);
    EXPECT_TRUE(present);
    EXPECT_EQ(out, "h.json");

    testing::internal::CaptureStderr();
    EXPECT_EQ(parse(cli, {"--fix-hints="}), CliStatus::Error);
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "or omit '='"),
              std::string::npos);
}

TEST(CliTest, ChoiceMapsNamesToValues)
{
    int model = 0;
    CliParser cli("t");
    cli.addChoice("--model", &model,
                  {{"x86", 1}, {"hops", 2}, {"arm", 3}}, "h");
    EXPECT_EQ(parse(cli, {"--model=arm"}), CliStatus::Ok);
    EXPECT_EQ(model, 3);

    testing::internal::CaptureStderr();
    EXPECT_EQ(parse(cli, {"--model=sparc"}), CliStatus::Error);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("invalid value for --model: 'sparc'"),
              std::string::npos);
    EXPECT_NE(err.find("(choices: x86, hops, arm)"),
              std::string::npos);
}

TEST(CliTest, UnknownOptionIsAnError)
{
    CliParser cli("t");
    testing::internal::CaptureStderr();
    EXPECT_EQ(parse(cli, {"--no-such-flag"}), CliStatus::Error);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("unknown option '--no-such-flag'"),
              std::string::npos);
    EXPECT_NE(err.find("usage:"), std::string::npos);
}

TEST(CliTest, HelpPrintsToStdout)
{
    bool quiet = false;
    CliParser cli("t", "<file>");
    cli.addFlag("--quiet", &quiet, "suppress output");
    testing::internal::CaptureStdout();
    EXPECT_EQ(parse(cli, {"--help"}), CliStatus::Help);
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("usage: tool"), std::string::npos)
        << "argv[0] overrides the configured tool name";
    EXPECT_NE(out.find("suppress output"), std::string::npos);
    EXPECT_NE(out.find("<file>"), std::string::npos);
}

TEST(CliTest, StringPlaceholderNamesTheValue)
{
    std::string worker, out_path;
    CliParser cli("t");
    cli.addString("--worker", &worker, "run shard i of N", "i/N");
    cli.addString("--report-out", &out_path, "write the report");
    testing::internal::CaptureStdout();
    EXPECT_EQ(parse(cli, {"--help"}), CliStatus::Help);
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("[--worker=i/N] [--report-out=FILE]"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("\n  --worker=i/N                 run shard i "
                       "of N\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("\n  --report-out=FILE            write the "
                       "report\n"),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("--worker=FILE"), std::string::npos) << out;
}

TEST(CliTest, PositionalCountsEnforced)
{
    CliParser cli("t", "<in> <out>");
    cli.positionalCount(2, 2);
    std::vector<std::string> pos;
    EXPECT_EQ(parse(cli, {"a", "b"}, &pos), CliStatus::Ok);
    ASSERT_EQ(pos.size(), 2u);
    EXPECT_EQ(pos[0], "a");
    EXPECT_EQ(pos[1], "b");

    testing::internal::CaptureStderr();
    EXPECT_EQ(parse(cli, {"a"}, &pos), CliStatus::Error);
    EXPECT_NE(testing::internal::GetCapturedStderr().find("usage:"),
              std::string::npos);

    testing::internal::CaptureStderr();
    EXPECT_EQ(parse(cli, {"a", "b", "c"}, &pos), CliStatus::Error);
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "unexpected argument 'c'"),
              std::string::npos);
}

TEST(CliTest, FlagsAndPositionalsInterleave)
{
    bool quiet = false;
    CliParser cli("t", "<file>...");
    cli.addFlag("--quiet", &quiet, "h");
    cli.positionalCount(1);
    std::vector<std::string> pos;
    EXPECT_EQ(parse(cli, {"a", "--quiet", "b"}, &pos), CliStatus::Ok);
    EXPECT_TRUE(quiet);
    ASSERT_EQ(pos.size(), 2u);
    EXPECT_EQ(pos[1], "b");
}

TEST(CliTest, UsageErrorReportsPostParseCombos)
{
    CliParser cli("t");
    testing::internal::CaptureStderr();
    EXPECT_EQ(cli.usageError("--a requires --b"), CliStatus::Error);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("--a requires --b"), std::string::npos);
    EXPECT_NE(err.find("usage: t"), std::string::npos);
}

TEST(CliTest, ExitCodesMatchTheToolContract)
{
    EXPECT_EQ(cliExitCode(CliStatus::Help), 0);
    EXPECT_EQ(cliExitCode(CliStatus::Error), 2);
}

} // namespace
} // namespace pmtest::util
