// CLI regression suite for chasectl, driving the real binary (path baked
// in as CHASECTL_PATH by CMake). The focus is flag hygiene: every numeric
// flag of every subcommand must diagnose a malformed value and exit with
// code 2 — never die by an uncaught std::invalid_argument out of a raw
// string-to-integer conversion, which is exactly how `--threads=abc` used
// to kill the process. A signal death (WIFEXITED false) fails the test, so
// any resurrected uncaught-exception path is caught here.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace {

std::string TempDir() {
  const char* dir = std::getenv("TMPDIR");
  return dir != nullptr ? dir : "/tmp";
}

// Runs `chasectl <args>`, asserting the process exited (as opposed to
// dying by signal — an uncaught exception aborts) and returning its exit
// code.
int RunChasectl(const std::string& args) {
  const std::string command =
      std::string(CHASECTL_PATH) + " " + args + " >/dev/null 2>&1";
  const int raw = std::system(command.c_str());
  EXPECT_TRUE(WIFEXITED(raw)) << "chasectl died by signal on: " << args;
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

// Runs `chasectl <args>` and returns its stdout; the exit code must be 0.
std::string ChasectlOutput(const std::string& args) {
  const std::string command =
      std::string(CHASECTL_PATH) + " " + args + " 2>/dev/null";
  std::string out;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "cannot run: " << args;
    return out;
  }
  char buffer[512];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) out.append(buffer, n);
  const int raw = pclose(pipe);
  EXPECT_TRUE(WIFEXITED(raw) && WEXITSTATUS(raw) == 0) << args;
  return out;
}

class ChasectlCliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    program_path_ = TempDir() + "/chasectl_cli_test.dlgp";
    std::ofstream out(program_path_);
    out << "r(a,b). r(c,c). s(a).\n"
           "r(X,Y) -> r(Y,X).\n";
  }

  static std::string program_path_;
};

std::string ChasectlCliTest::program_path_;

TEST_F(ChasectlCliTest, MalformedNumericFlagsExitTwo) {
  const std::string file = program_path_;
  const std::string out_idx = TempDir() + "/chasectl_cli_test_bad.chidx";
  const std::string out_gen = TempDir() + "/chasectl_cli_test_bad.dlgp";
  // Every (invocation, numeric flag) pair the CLI accepts; %s is replaced
  // with each malformed value below.
  const std::vector<std::string> invocations = {
      "check " + file + " --mode=l --threads=%s",
      "chase " + file + " --max-atoms=%s",
      "chase " + file + " --metrics-interval=%s",
      "chase " + file + " --max-rounds=%s",
      "chase " + file + " --checkpoint=" + TempDir() +
          "/chasectl_cli_test.chck --checkpoint-every=%s",
      "simplify " + file + " --threads=%s",
      "findshapes " + file + " --threads=%s",
      "findshapes " + file + " --shards=%s",
      "index build " + file + " " + out_idx + " --threads=%s",
      "index build " + file + " " + out_idx + " --shards=%s",
      "generate " + out_gen + " --preds=%s",
      "generate " + out_gen + " --arity=%s",
      "generate " + out_gen + " --domain=%s",
      "generate " + out_gen + " --tuples=%s",
      "generate " + out_gen + " --seed=%s",
      "generate " + out_gen + " --tgds=%s",
  };
  // Non-numeric, trailing garbage, negative, and past-uint64 overflow.
  const std::vector<std::string> bad_values = {
      "abc", "3x", "-3", "18446744073709551616"};
  for (const std::string& invocation : invocations) {
    for (const std::string& value : bad_values) {
      std::string args = invocation;
      args.replace(args.find("%s"), 2, value);
      EXPECT_EQ(RunChasectl(args), 2) << args;
    }
  }
}

TEST_F(ChasectlCliTest, OutOfRangeNumericFlagsExitTwo) {
  // In-format but out-of-bounds values: threads has a [1, 1024] window,
  // and generate's arity is capped at Schema::kMaxArity.
  EXPECT_EQ(RunChasectl("findshapes " + program_path_ + " --threads=0"), 2);
  EXPECT_EQ(RunChasectl("findshapes " + program_path_ + " --threads=4096"),
            2);
  EXPECT_EQ(RunChasectl("generate " + TempDir() +
                        "/chasectl_cli_test_bad.dlgp --arity=300"),
            2);
}

TEST_F(ChasectlCliTest, WellFormedFlagsStillRun) {
  EXPECT_EQ(RunChasectl("chase " + program_path_ +
                        " --variant=re --max-atoms=1000"),
            0);
  EXPECT_EQ(RunChasectl("findshapes " + program_path_ +
                        " --mode=exists --threads=2"),
            0);
  EXPECT_EQ(RunChasectl("findshapes " + program_path_ +
                        " --backend=disk --mode=exists --threads=2"),
            0);
  EXPECT_EQ(RunChasectl("check " + program_path_ + " --mode=l --threads=2"),
            0);
}

TEST_F(ChasectlCliTest, SummariesReportTheThreadsThatRan) {
  // The exists plan walks its lattices serially at any --threads, so the
  // summaries report 1 for it; the scan plan runs the requested count.
  const std::string file = program_path_;
  EXPECT_NE(ChasectlOutput("findshapes " + file + " --mode=exists --threads=4")
                .find("plan: exists, threads: 1\n"),
            std::string::npos);
  EXPECT_NE(ChasectlOutput("findshapes " + file +
                           " --backend=disk --mode=exists --threads=4")
                .find("plan: exists, threads: 1\n"),
            std::string::npos);
  EXPECT_NE(ChasectlOutput("findshapes " + file + " --mode=scan --threads=4")
                .find("plan: scan, threads: 4\n"),
            std::string::npos);
  EXPECT_NE(ChasectlOutput("simplify " + file + " --mode=exists --threads=4")
                .find("(exists plan, 1 thread(s), "),
            std::string::npos);
  EXPECT_NE(ChasectlOutput("simplify " + file + " --mode=scan --threads=4")
                .find("(scan plan, 4 thread(s), "),
            std::string::npos);
}

TEST_F(ChasectlCliTest, UnknownEnumValuesExitTwo) {
  EXPECT_EQ(RunChasectl("findshapes " + program_path_ + " --mode=bogus"), 2);
  EXPECT_EQ(RunChasectl("findshapes " + program_path_ + " --backend=bogus"),
            2);
  EXPECT_EQ(
      RunChasectl("check " + program_path_ + " --mode=l --shapes=bogus"), 2);
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --variant=bogus"), 2);
}

TEST_F(ChasectlCliTest, UnknownFlagsExitTwo) {
  // Each subcommand accepts only its own flags: a typo or a retired option
  // is diagnosed, never run with the default it silently fell back to.
  const std::string file = program_path_;
  for (const std::string& args : {
           "findshapes " + file + " --absorb=serial",
           "findshapes " + file + " --thread=2",
           "findshapes " + file + " --threads=2 --absorb=parallel",
           "check " + file + " --mode=l --thread=2",
           "check " + file + " --backend=disk",
           "chase " + file + " --shards=2",
           "chase " + file + " --threads=2",
           "chase " + file + " --hom-budget=4",
           "simplify " + file + " --variant=so",
           "stats " + file + " --print",
           "zoo " + file + " --threads=2",
           "graph " + file + " --all-node",
           "findshapes " + file + " --prefetch=8",
           "findshapes " + file + " --pool-shards=4",
       }) {
    EXPECT_EQ(RunChasectl(args), 2) << args;
  }
  // The same flags spelled right still run.
  EXPECT_EQ(RunChasectl("findshapes " + file + " --threads=2"), 0);
  EXPECT_EQ(RunChasectl("graph " + file + " --all-nodes"), 0);
}

TEST_F(ChasectlCliTest, MalformedObservabilityFlagsExitTwo) {
  // --progress takes an optional whole-seconds value in [1, 86400]; bare
  // --progress is fine (tested below) but garbage values are diagnosed.
  for (const std::string value : {"abc", "1.5", "-3", "0", "86401"}) {
    EXPECT_EQ(RunChasectl("chase " + program_path_ + " --progress=" + value),
              2)
        << value;
  }
  // --metrics-interval has no bare form (a cadence needs a value) and the
  // same [1, 86400] whole-seconds window as --progress.
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --metrics-interval"), 2);
  for (const std::string value : {"abc", "1.5", "-3", "0", "86401"}) {
    EXPECT_EQ(RunChasectl("chase " + program_path_ +
                          " --metrics-interval=" + value),
              2)
        << value;
  }
  // --trace / --metrics require a path: the bare-flag form is a syntax
  // error, not a run that silently drops the artifact.
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --trace"), 2);
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --metrics"), 2);
  EXPECT_EQ(RunChasectl("check " + program_path_ + " --trace"), 2);
  EXPECT_EQ(RunChasectl("findshapes " + program_path_ + " --metrics"), 2);
}

TEST_F(ChasectlCliTest, UnwritableArtifactPathsFailCleanlyUpFront) {
  // A path in a nonexistent directory must be a clean diagnosed exit 1
  // (probed before the run) — never a crash, and never exit 0 with the
  // artifact missing. RunChasectl itself asserts "exited, not signaled".
  const std::string bad = "/nonexistent-dir-for-chasectl-test/out.json";
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --trace=" + bad), 1);
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --metrics=" + bad), 1);
  EXPECT_EQ(RunChasectl("check " + program_path_ + " --trace=" + bad), 1);
  EXPECT_EQ(RunChasectl("simplify " + program_path_ + " --metrics=" + bad),
            1);
}

TEST_F(ChasectlCliTest, MalformedCheckpointFlagsExitTwo) {
  const std::string ck = TempDir() + "/chasectl_cli_test_flags.chck";
  // --checkpoint and --resume require a path: the bare-flag form is a
  // syntax error, not a run that silently drops the checkpoint.
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --checkpoint"), 2);
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --resume"), 2);
  // A cadence without a file to write has nothing to mean.
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --checkpoint-every=2"),
            2);
  // The cadence is a whole positive round count.
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --checkpoint=" + ck +
                        " --checkpoint-every=0"),
            2);
}

TEST_F(ChasectlCliTest, CheckpointPathProblemsFailCleanlyUpFront) {
  // An unwritable checkpoint destination is probed before the run; a
  // missing resume source is a clean load failure. Both exit 1, never a
  // crash and never a run whose checkpoint silently went nowhere.
  EXPECT_EQ(RunChasectl("chase " + program_path_ +
                        " --checkpoint=/nonexistent-dir-for-chasectl/x.chck"),
            1);
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --resume=" + TempDir() +
                        "/chasectl_cli_test_missing.chck"),
            1);
}

TEST_F(ChasectlCliTest, CheckpointResumeRoundTrips) {
  // A non-terminating chain, so both legs end at their round limits.
  const std::string file = TempDir() + "/chasectl_cli_test_nonterm.dlgp";
  {
    std::ofstream out(file);
    out << "e(a,b).\ne(X,Y) -> e(Y,Z).\n";
  }
  const std::string ck = TempDir() + "/chasectl_cli_test_resume.chck";
  std::remove(ck.c_str());
  EXPECT_EQ(RunChasectl("chase " + file + " --variant=ob --max-rounds=2" +
                        " --checkpoint=" + ck + " --checkpoint-every=1"),
            0);
  std::ifstream in(ck, std::ios::binary);
  ASSERT_TRUE(in.good()) << ck;
  // --resume without --variant adopts the checkpoint's variant; a
  // conflicting explicit variant is a diagnosed failure, not a divergent
  // chase.
  EXPECT_EQ(RunChasectl("chase " + file + " --resume=" + ck +
                        " --max-rounds=4"),
            0);
  EXPECT_EQ(RunChasectl("chase " + file + " --resume=" + ck +
                        " --variant=so --max-rounds=4"),
            1);
  std::remove(ck.c_str());
  std::remove(file.c_str());
}

TEST_F(ChasectlCliTest, ObservabilityRunsProduceArtifacts) {
  const std::string trace_path = TempDir() + "/chasectl_cli_test_trace.json";
  const std::string metrics_path =
      TempDir() + "/chasectl_cli_test_metrics.json";
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
  EXPECT_EQ(RunChasectl("chase " + program_path_ +
                        " --progress --trace=" + trace_path +
                        " --metrics=" + metrics_path),
            0);
  // Non-empty artifacts that at least look like JSON objects; the real
  // structural validation lives in obs_test and the CI jq smoke.
  for (const std::string& path : {trace_path, metrics_path}) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    char first = '\0';
    in >> first;
    EXPECT_EQ(first, '{') << path;
  }
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());

  // --progress with an explicit interval still runs.
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --progress=1"), 0);
  // --metrics-interval runs standalone (registry enabled just for the
  // periodic stderr dumps) and alongside a --metrics artifact.
  EXPECT_EQ(RunChasectl("chase " + program_path_ + " --metrics-interval=1"),
            0);
  EXPECT_EQ(RunChasectl("chase " + program_path_ +
                        " --metrics-interval=1 --metrics=" + metrics_path),
            0);
  std::remove(metrics_path.c_str());
  // check --metrics exercises the RecordTimeParams path.
  EXPECT_EQ(RunChasectl("check " + program_path_ +
                        " --mode=l --metrics=" + metrics_path),
            0);
  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good());
  std::string dump((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(dump.find("check.t_total_ms"), std::string::npos);
  std::remove(metrics_path.c_str());
}

}  // namespace
