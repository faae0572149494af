//===- tests/CliHarness.h - Shared harness for the CLI tests ---------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One harness for every test that drives the `pinpoint` command line:
///
///  * `TempDir`: a scratch directory under the test working directory,
///    named after the running test and removed on scope exit;
///  * `readFile`: a whole file as a string;
///  * `spawnTool` / `waitTool` / `runTool`: fork a child that calls
///    `pinpointToolMain` directly — the exact production code path
///    including signal handlers and exit codes — with stdout (and
///    optionally stderr) redirected to files;
///  * `filterVolatile`: drops the stats lines that reflect work or
///    interleaving rather than findings;
///  * `statValue`: one `key=value` field of one named `[line]` of `--stats`
///    output, matched exactly (the same parse as perfbench/run.py's
///    `stats_fields`).
///
/// The forking helpers exist only where `PINPOINT_CLI_TESTS` is 1: fork is
/// unavailable on Windows and does not mix with ThreadSanitizer's
/// instrumented threads, so the CLI tests are compiled out there.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_TESTS_CLIHARNESS_H
#define PINPOINT_TESTS_CLIHARNESS_H

#include "tools/PinpointTool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__SANITIZE_THREAD__)
#define PINPOINT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PINPOINT_TSAN 1
#endif
#endif

#if !defined(_WIN32) && !defined(PINPOINT_TSAN)
#define PINPOINT_CLI_TESTS 1
#include <sys/wait.h>
#include <unistd.h>
#else
#define PINPOINT_CLI_TESTS 0
#endif

namespace pinpoint::clitest {

/// A scratch directory under the test working directory, removed on exit.
/// The name carries the running test's full name: ctest runs each test in
/// its own process, in parallel, from one working directory, so the
/// per-process counter alone would let two tests share a directory.
class TempDir {
public:
  explicit TempDir(const std::string &Tag) {
    std::string Test = "none";
    if (const ::testing::TestInfo *TI =
            ::testing::UnitTest::GetInstance()->current_test_info())
      Test = std::string(TI->test_suite_name()) + "." + TI->name();
    std::replace(Test.begin(), Test.end(), '/', '_');
    Path = "tmp_" + Test + "_" + Tag + "_" +
           std::to_string(Counter.fetch_add(1, std::memory_order_relaxed));
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;

  std::string file(const std::string &Name) const {
    return (std::filesystem::path(Path) / Name).string();
  }
  const std::string &path() const { return Path; }

private:
  static inline std::atomic<uint64_t> Counter{0};
  std::string Path;
};

inline std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Strips the stats lines that reflect work performed or thread
/// interleaving rather than findings. The determinism contracts (--jobs,
/// --demand, cache temperature) exempt exactly these; reports, the
/// degradation log and the per-checker [checker] lines stay.
inline std::string filterVolatile(const std::string &Out) {
  static const char *const Volatile[] = {"[pipeline]",  "[phase]",
                                         "[exprs]",     "[cache]",
                                         "[lifecycle]", "[demand]",
                                         "[sched]"};
  std::string Keep;
  std::stringstream SS(Out);
  std::string Line;
  while (std::getline(SS, Line)) {
    bool Drop = false;
    for (const char *P : Volatile)
      if (Line.rfind(P, 0) == 0)
        Drop = true;
    if (!Drop)
      Keep += Line + "\n";
  }
  return Keep;
}

/// The integer value of field \p Key on the first stats line that starts
/// with \p Line (e.g. "[cache]"); -1 when the line or the field is absent.
/// Fields are the line's whitespace-separated `key=value` tokens and the
/// key must match exactly, so "stored" never hits "relevance-stored".
inline long long statValue(const std::string &Out, const std::string &Line,
                           const std::string &Key) {
  std::stringstream SS(Out);
  std::string L;
  while (std::getline(SS, L)) {
    if (L.rfind(Line + " ", 0) != 0)
      continue;
    std::stringstream Fields(L.substr(Line.size()));
    std::string Tok;
    while (Fields >> Tok)
      if (Tok.rfind(Key + "=", 0) == 0)
        return std::atoll(Tok.c_str() + Key.size() + 1);
    return -1;
  }
  return -1;
}

#if PINPOINT_CLI_TESTS

/// Forks a child that runs the production CLI entry point with \p Args,
/// stdout redirected to \p OutFile and stderr to \p ErrFile. Returns the
/// child's pid.
inline pid_t spawnTool(const std::vector<std::string> &Args,
                       const std::string &OutFile,
                       const std::string &ErrFile = "/dev/null") {
  pid_t Pid = fork();
  if (Pid != 0)
    return Pid;
  // Child: run the exact driver. Past the start of the analysis a release
  // build ends the child itself, after flushing every stdio stream; a run
  // that returns (code 2, or a sanitizer build) exits here with exit(),
  // not _exit(), so stdio flushes — the flush behaviour is under test.
  if (!std::freopen(OutFile.c_str(), "w", stdout))
    std::exit(90);
  if (!std::freopen(ErrFile.c_str(), "w", stderr))
    std::exit(91);
  std::vector<std::string> Store = Args;
  std::vector<char *> Argv;
  static char Name[] = "pinpoint";
  Argv.push_back(Name);
  for (std::string &A : Store)
    Argv.push_back(A.data());
  std::exit(tools::pinpointToolMain(static_cast<int>(Argv.size()),
                                    Argv.data()));
}

/// Waits for the child; returns its exit code (or -signal if killed).
inline int waitTool(pid_t Pid) {
  int Status = 0;
  if (waitpid(Pid, &Status, 0) != Pid)
    return -1000;
  if (WIFEXITED(Status))
    return WEXITSTATUS(Status);
  if (WIFSIGNALED(Status))
    return -WTERMSIG(Status);
  return -1001;
}

inline int runTool(const std::vector<std::string> &Args,
                   const std::string &OutFile,
                   const std::string &ErrFile = "/dev/null") {
  return waitTool(spawnTool(Args, OutFile, ErrFile));
}

#endif // PINPOINT_CLI_TESTS

} // namespace pinpoint::clitest

#endif // PINPOINT_TESTS_CLIHARNESS_H
