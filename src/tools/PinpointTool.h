//===- tools/PinpointTool.h - Reusable pinpoint CLI entry point ------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `pinpoint` tool's whole driver as a library function, so lifecycle
/// tests can fork a child, run the exact CLI code path (signal handlers,
/// partial-result flush, exit codes) and assert on the child's output and
/// status without exec'ing the installed binary.
///
/// Exit codes (the run-lifecycle contract, DESIGN.md section 12):
///   0  analysis completed (reports possibly degraded, never silently lost)
///   2  usage or input error
///   3  interrupted (SIGINT/SIGTERM): partial results were flushed
///   4  internal error (unexpected exception escaping the analysis)
///
/// A release build (any build without ASan or TSan) does not return once
/// the analysis has started: on 0, 3 and 4 it flushes every stdio stream
/// and ends the process with `std::_Exit`, skipping the teardown of the
/// IR, the analysed module and the expression context. Only code 2, an
/// error found before the analysis, returns. ASan and TSan builds always
/// return, so their leak and race checks still see the full teardown. A caller that must go on
/// after the call runs it in a child process (the CLI tests fork one per
/// call); library users build `svfa::AnalyzedModule` directly.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_TOOLS_PINPOINTTOOL_H
#define PINPOINT_TOOLS_PINPOINTTOOL_H

namespace pinpoint::tools {

/// Runs the complete `pinpoint` command line: argument parsing, analysis,
/// report/stats printing, and the interrupt-aware flush. Returns the
/// process exit code documented above, or, in a release build once the
/// analysis has started, ends the process with it.
int pinpointToolMain(int Argc, char **Argv);

} // namespace pinpoint::tools

#endif // PINPOINT_TOOLS_PINPOINTTOOL_H
