//===-- perfbench/src/Bench.cpp - Shared benchmark plumbing ---------------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <iterator>
#include <mutex>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

namespace pb {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  // Nearest rank: the smallest value with at least P% of samples <= it.
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  return V[Rank - 1];
}

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

uint64_t gaugeNs() {
  // Seven ops over a 32 KiB table: arithmetic, a data-dependent branch,
  // loads and stores, one indirect dispatch per op. The barrier after each
  // op keeps the compiler from fusing them.
  static const uint8_t Code[] = {0, 1, 2, 3, 1, 4, 2, 5, 0, 3, 4, 1, 5, 2, 6};
  static uint64_t Table[4096];
  uint64_t A = 1, B = 7, Acc = 0;
  std::fill(std::begin(Table), std::end(Table), 3);
  const uint64_t T0 = nowNs();
  for (unsigned I = 0; I < 200'000; ++I) {
    for (size_t Pc = 0;; ++Pc) {
      switch (Code[Pc]) {
      case 0: A += B; break;
      case 1: B ^= A << 3; break;
      case 2: Acc += Table[A & 4095]; break;
      case 3: Table[B & 4095] = Acc; break;
      case 4: A = (A & 1) ? A * 3 + 1 : A >> 1; break;
      case 5: Acc = (Acc >> 1) + B; break;
      default: goto Done;
      }
      asm volatile("" ::: "memory");
    }
  Done:;
  }
  const uint64_t T1 = nowNs();
  asm volatile("" : : "r"(Acc + A + B));
  return T1 - T0;
}

double peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double residentKb() {
  FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  unsigned long long Size = 0, Resident = 0;
  const int N = std::fscanf(F, "%llu %llu", &Size, &Resident);
  std::fclose(F);
  if (N != 2)
    return 0;
  return static_cast<double>(Resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

void Report::add(const std::string &Name, double Value, const char *Unit) {
  if (!std::isfinite(Value))
    wrong("metric %s is not a number", Name.c_str());
  Metrics.push_back({Name, Value, Unit});
}

void Report::wrong(const char *Fmt, ...) {
  Correct = false;
  if (++WrongPrinted > 20)
    return; // the first few say what broke; the rest only repeat it
  std::fputs("perfbench: WRONG: ", stderr);
  va_list Ap;
  va_start(Ap, Fmt);
  std::vfprintf(stderr, Fmt, Ap);
  va_end(Ap);
  std::fputc('\n', stderr);
}

std::string Report::json() const {
  std::string S = "{\"correct\": ";
  S += Correct ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(Attempted);
  S += ", \"failed\": " + std::to_string(Failed);
  S += ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    std::snprintf(Buf, sizeof(Buf), "%.12g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    S += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + M.Unit + "\"}";
  }
  S += "}}";
  return S;
}

IdleSpinners::IdleSpinners() {
  const unsigned N = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([this] {
      sched_param P{};
      if (sched_setscheduler(0, SCHED_IDLE, &P) != 0)
        return; // without the idle class a spinner would compete; stop
      while (!Stop.load(std::memory_order_relaxed))
        ;
    });
}

IdleSpinners::~IdleSpinners() {
  Stop.store(true);
  for (std::thread &T : Threads)
    T.join();
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

namespace {
struct SpanRec {
  const char *Name;
  uint64_t StartNs, EndNs;
  uint64_t Id, Parent; ///< 0 = no parent
  uint64_t Job;        ///< spans of one job share it; 0 = none
};

/// Bounds the in-memory span log (about 10 MB); later spans are counted
/// but not kept.
constexpr size_t MaxSpans = 200'000;

std::atomic<bool> TracingOn{false};
std::atomic<uint64_t> NextSpanId{1};
std::atomic<uint64_t> DroppedSpans{0};
std::mutex SpansMu;
std::vector<SpanRec> Spans; // SpansMu
thread_local uint64_t OpenSpan = 0;
} // namespace

void enableTracing() {
  {
    std::lock_guard<std::mutex> L(SpansMu);
    Spans.reserve(MaxSpans);
  }
  TracingOn.store(true);
}

Span::Span(const char *Name, uint64_t Job) : Name(Name), Job(Job) {
  if (!TracingOn.load(std::memory_order_relaxed))
    return;
  Id = NextSpanId.fetch_add(1, std::memory_order_relaxed);
  Parent = OpenSpan;
  OpenSpan = Id;
  StartNs = nowNs();
}

Span::~Span() {
  if (!Id)
    return;
  const uint64_t End = nowNs();
  OpenSpan = Parent;
  std::lock_guard<std::mutex> L(SpansMu);
  if (Spans.size() < MaxSpans)
    Spans.push_back({Name, StartNs, End, Id, Parent, Job});
  else
    DroppedSpans.fetch_add(1, std::memory_order_relaxed);
}

uint64_t writeSpans(const std::string &Path) {
  std::lock_guard<std::mutex> L(SpansMu);
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return 0;
  for (const SpanRec &R : Spans)
    std::fprintf(F,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"id\":%llu,\"parent\":%llu,\"job\":%llu}\n",
                 R.Name, static_cast<unsigned long long>(R.StartNs),
                 static_cast<unsigned long long>(R.EndNs),
                 static_cast<unsigned long long>(R.Id),
                 static_cast<unsigned long long>(R.Parent),
                 static_cast<unsigned long long>(R.Job));
  if (DroppedSpans.load())
    std::fprintf(F, "{\"dropped_spans\":%llu}\n",
                 static_cast<unsigned long long>(DroppedSpans.load()));
  std::fclose(F);
  return Spans.size();
}

} // namespace pb
