/**
 * @file
 * Golden test over `swsim_cli --help`: the CLI surface is an interface
 * contract (scripts, CI jobs, and docs/EXPERIMENTS.md recipes all parse
 * or cite it), so any flag addition, removal, or rewording must show up
 * as an explicit golden-file diff in review.  The CliArgs cases pin that
 * out-of-range counts are usage errors (exit 2), not aborts.
 *
 * Regenerate after an intentional change:
 *   build/examples/swsim_cli --help > tests/cli/swsim_cli_help.golden
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <utility>

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Exit status and combined output of swsim_cli run with @p args. */
std::pair<int, std::string>
runCli(const std::string &args)
{
    std::string cmd = std::string(SWSIM_CLI_PATH) + " " + args + " 2>&1";
    std::FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
        out.append(buf, n);
    int status = pclose(pipe);
    return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

std::string
runHelp()
{
    auto [status, out] = runCli("--help");
    EXPECT_EQ(status, 0) << "swsim_cli --help exited non-zero";
    return out;
}

TEST(CliHelp, MatchesGolden)
{
    std::string golden =
        readFile(std::string(SW_SOURCE_DIR) + "/tests/cli/swsim_cli_help.golden");
    EXPECT_EQ(runHelp(), golden)
        << "swsim_cli --help drifted from tests/cli/swsim_cli_help.golden; "
           "if the change is intentional, regenerate the golden file "
           "(command in this file's header) and commit it";
}

TEST(CliHelp, DocumentsCheckpointFlags)
{
    // Belt and braces beyond the byte-exact golden: the checkpoint /
    // sampling surface this PR adds must be present by name.
    std::string help = runHelp();
    for (const char *flag :
         {"--ffwd", "--checkpoint-at", "--checkpoint-out", "--checkpoint-in",
          "--phase-sample", "--phase-window", "--phase-clusters"}) {
        EXPECT_NE(help.find(flag), std::string::npos)
            << "missing " << flag << " in --help output";
    }
}

TEST(CliHelp, DocumentsObservabilityFlags)
{
    // The streaming-export surface (cycle ledger, NDJSON event log,
    // Prometheus snapshot) must stay discoverable by name.
    std::string help = runHelp();
    for (const char *flag :
         {"--metrics-out", "--samples-out", "--ledger-out", "--events-out",
          "--prom-out"}) {
        EXPECT_NE(help.find(flag), std::string::npos)
            << "missing " << flag << " in --help output";
    }
}

TEST(CliArgs, OutOfRangeCountsAreUsageErrors)
{
    // A count that does not fit its field, or that the model would
    // reject with an assertion, is a usage error (exit 2), not an abort.
    const std::pair<const char *, const char *> cases[] = {
        {"--ptws 0", "--ptws expects a number in [1, 4294967295]"},
        {"--ptws 4294967296", "--ptws expects a number in [1, 4294967295]"},
        {"--intlb 4294967296", "--intlb expects a number in [0, 4294967295]"},
        {"--subtlb 0", "--subtlb expects a number in [1, 4294967295]"},
        {"--phase-clusters 0",
         "--phase-clusters expects a number in [1, 4294967295]"},
        {"--quota -1", "--quota expects a number, got '-1'"},
    };
    for (const auto &[args, message] : cases) {
        SCOPED_TRACE(args);
        auto [status, out] = runCli(args);
        EXPECT_EQ(status, 2) << out;
        EXPECT_NE(out.find(std::string("swsim_cli: ") + message),
                  std::string::npos)
            << out;
    }
}

TEST(CliArgs, UnknownChoicesAreUsageErrors)
{
    // A value outside a flag's fixed set of choices is rejected, never
    // mapped to a default.
    const std::pair<const char *, const char *> cases[] = {
        {"--mode bogus", "--mode expects hw|sw|hybrid|ideal, got 'bogus'"},
        {"--page 4k", "--page expects 64k|2m, got '4k'"},
        {"--page 2M", "--page expects 64k|2m, got '2M'"},
        {"--pt linear", "--pt expects radix|hashed, got 'linear'"},
        {"--pt Radix", "--pt expects radix|hashed, got 'Radix'"},
    };
    for (const auto &[args, message] : cases) {
        SCOPED_TRACE(args);
        auto [status, out] = runCli(args);
        EXPECT_EQ(status, 2) << out;
        EXPECT_NE(out.find(std::string("swsim_cli: ") + message),
                  std::string::npos)
            << out;
    }
}

} // namespace
