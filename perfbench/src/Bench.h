//===-- perfbench/src/Bench.h - Shared benchmark plumbing ------*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the end-to-end benchmark shares: the clock,
/// order statistics, process memory, the result record that becomes the
/// final JSON line, and the span tracer used by traced runs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace pb {

uint64_t nowNs();

/// Nearest-rank percentile (P in [0, 100]) of \p V; 0 when empty.
double percentile(std::vector<double> V, double P);
double median(std::vector<double> V);

/// Host-speed gauge: runs a fixed bytecode loop, owned by the benchmark
/// and switch-dispatched like the simplest engine, once and returns its
/// wall time in ns. No change to the project can move it; what moves it
/// is the speed the shared host gives this thread at that moment, which
/// drifts by a third over minutes on the reference host.
uint64_t gaugeNs();
/// gaugeNs() on the reference host in its fast state. A time scaled by
/// GaugeRefNs / gaugeNs() reads as it would on that host.
inline constexpr double GaugeRefNs = 6.5e6;

/// Peak resident set of this process (getrusage), MiB.
double peakRssMb();
/// Current resident set of this process (/proc/self/statm), KiB.
double residentKb();

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20;
  bool Trace = false;
  /// One-second sanity run: fewer rounds and set-ups, same checks.
  bool Smoke = false;
  /// Corrupts one expected output so the correctness checks must fire.
  bool WrongExpected = false;
};

/// The end-to-end figures every workload reports (BENCHMARK.json's
/// end_to_end list). Workloads without a natural value for one of them
/// fill it as their README entry says.
struct EndToEnd {
  double SetupS = 0;
  double GuestStepsPerS = 0;
  double JobsPerS = 0;
  double JobP50Ms = 0;
  double JobP90Ms = 0;
  double JobP99Ms = 0;
  double MaxRateJobsPerS = 0;
  double PeakRssMb = 0;
};

/// One run's verdict and metrics; printed as the last stdout line.
class Report {
public:
  void add(const std::string &Name, double Value, const char *Unit);
  /// A wrong output: the run is incorrect (printed on stderr).
  void wrong(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));
  void attempt(uint64_t N = 1) { Attempted += N; }
  void failedOp(uint64_t N = 1) { Failed += N; }
  bool correct() const { return Correct; }
  std::string json() const;

private:
  struct Metric {
    std::string Name;
    double Value;
    const char *Unit;
  };
  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0;
  uint64_t WrongPrinted = 0;
  std::vector<Metric> Metrics;
};

/// Keeps every processor of the machine from idling while it lives: one
/// thread per processor spins at SCHED_IDLE, the lowest priority, which
/// runs only when nothing else is runnable and yields at once to any
/// thread that wakes. On a virtual machine an idle virtual processor is
/// handed back to the host, and waking it again can take milliseconds
/// when the host is busy; a service that sleeps and wakes many times per
/// millisecond-long job then measures the host's scheduling instead of
/// itself. The spinners hold the processors, so wake-ups stay inside the
/// guest.
class IdleSpinners {
public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners &) = delete;
  IdleSpinners &operator=(const IdleSpinners &) = delete;

private:
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Threads;
};

//===----------------------------------------------------------------------===//
// Tracing: spans kept in memory, written out when the run ends.
//===----------------------------------------------------------------------===//

/// Turns span recording on for the rest of the process.
void enableTracing();
/// Writes every recorded span as JSON lines to \p Path; returns the count.
uint64_t writeSpans(const std::string &Path);

/// RAII span around one call into a layer. Free when tracing is off; its
/// parent is the innermost open span of the same thread.
class Span {
public:
  explicit Span(const char *Name, uint64_t Job = 0);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name;
  uint64_t Job, Id = 0, Parent = 0, StartNs = 0;
};

} // namespace pb

#endif // PERFBENCH_BENCH_H
