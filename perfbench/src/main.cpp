//===-- perfbench/src/main.cpp - The end-to-end benchmark -----------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload paper-suite|long-jobs|short-jobs --seed N
///           --seconds S --trace 0|1 [--smoke] [--wrong-expected]
///
/// Runs one workload and prints, as the last stdout line, one JSON object
/// with the verdict of its correctness checks, the operations attempted
/// and failed, and the metrics: the end-to-end ones with --trace 0; with
/// --trace 1 the per-layer ones, beside the workload's own end-to-end
/// figures measured with tracing on (traced.*). A traced run also writes
/// its spans next to the binary. The exit code is nonzero when any output
/// was wrong. See perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace pb;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper-suite|long-jobs|short-jobs "
               "--seed N --seconds S --trace 0|1 [--smoke] "
               "[--wrong-expected]\n");
  std::exit(2);
}

double parseNum(const char *S) {
  char *End = nullptr;
  const double V = std::strtod(S, &End);
  if (!End || *End || V < 0)
    usage();
  return V;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  bool HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    auto Val = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage();
      return Argv[++I];
    };
    if (!std::strcmp(A, "--workload"))
      Opt.Workload = Val();
    else if (!std::strcmp(A, "--seed"))
      Opt.Seed = static_cast<uint64_t>(parseNum(Val()));
    else if (!std::strcmp(A, "--seconds"))
      Opt.Seconds = parseNum(Val());
    else if (!std::strcmp(A, "--trace")) {
      Opt.Trace = parseNum(Val()) != 0;
      HaveTrace = true;
    } else if (!std::strcmp(A, "--smoke"))
      Opt.Smoke = true;
    else if (!std::strcmp(A, "--wrong-expected"))
      Opt.WrongExpected = true;
    else
      usage();
  }
  if (!HaveTrace || Opt.Seconds <= 0)
    usage();

  EndToEnd (*Run)(const Options &, Report &) = nullptr;
  if (Opt.Workload == "paper-suite")
    Run = runPaperSuite;
  else if (Opt.Workload == "long-jobs")
    Run = runLongJobs;
  else if (Opt.Workload == "short-jobs")
    Run = runShortJobs;
  else
    usage();

  if (Opt.Trace)
    enableTracing();
  Report Rep;
  const EndToEnd E = Run(Opt, Rep);
  const std::pair<const char *, double> EndToEndMetrics[] = {
      {"setup_s", E.SetupS},
      {"guest_steps_per_s", E.GuestStepsPerS},
      {"jobs_per_s", E.JobsPerS},
      {"job_p50_ms", E.JobP50Ms},
      {"job_p90_ms", E.JobP90Ms},
      {"job_p99_ms", E.JobP99Ms},
      {"max_rate_jobs_per_s", E.MaxRateJobsPerS},
      {"peak_rss_mb", E.PeakRssMb}};
  const char *Units[] = {"s",  "steps/s", "jobs/s", "ms",
                         "ms", "ms",      "jobs/s", "MiB"};
  size_t U = 0;
  for (const auto &[Name, Value] : EndToEndMetrics) {
    if (!(Value > 0))
      Rep.wrong("end-to-end metric %s measured %g", Name, Value);
    Rep.add(Opt.Trace ? std::string("traced.") + Name : std::string(Name),
            Value, Units[U++]);
  }
  if (Opt.Trace) {
    runLayerSuite(Opt, Rep);
    std::string Dir = Argv[0];
    const size_t Slash = Dir.rfind('/');
    Dir = Slash == std::string::npos ? "." : Dir.substr(0, Slash);
    const std::string Path = Dir + "/spans-" + Opt.Workload + "-seed" +
                             std::to_string(Opt.Seed) + ".jsonl";
    const uint64_t N = writeSpans(Path);
    std::fprintf(stderr, "perfbench: %llu spans written to %s\n",
                 static_cast<unsigned long long>(N), Path.c_str());
  }
  std::printf("%s\n", Rep.json().c_str());
  std::fflush(stdout);
  return Rep.correct() ? 0 : 1;
}
