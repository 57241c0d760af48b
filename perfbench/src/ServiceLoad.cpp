//===-- perfbench/src/ServiceLoad.cpp - long-jobs and short-jobs ----------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two service workloads. Both submit over sc-wire through an
/// in-process LocalChannel to a ServiceFrontEnd with its default config
/// (two shards of one worker), from one client thread with its own
/// ServiceClient: one client plus the shards stays within a 4-processor
/// host, and one thread easily carries the load, so the service, not a
/// crowd of clients, decides the latency.
///
/// long-jobs: the paper programs as closed-loop jobs, more in flight than
/// shard workers; many slices and checkpoints per job.
///
/// short-jobs: an open loop of tiny generated jobs at fixed rates on a
/// seeded Poisson schedule, timed from their due time; most hit the
/// front end's program cache, a fixed number per run never do.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <malloc.h>

using namespace sc;
using namespace sc::service;

namespace pb {

LocalHost::~LocalHost() {
  // Every client has dropped its end by now, so each serve loop returns.
  std::lock_guard<std::mutex> L(Mu);
  for (std::thread &T : Threads)
    T.join();
}

std::unique_ptr<Channel> LocalHost::connect() {
  auto [Cli, Srv] = makeLocalPair();
  std::lock_guard<std::mutex> L(Mu);
  Threads.emplace_back(
      [this, S = std::move(Srv)]() mutable { serveChannel(FE, *S); });
  return std::move(Cli);
}

std::vector<std::string> balancedTenants(const ServiceFrontEnd &FE,
                                         unsigned PerShard) {
  const unsigned Shards = FE.config().Shards;
  std::vector<std::vector<std::string>> ByShard(Shards);
  for (unsigned I = 0; I < 10000; ++I) {
    std::string Name = "tenant-" + std::to_string(I);
    auto &Bucket = ByShard[FE.shardOf(Name)];
    if (Bucket.size() < PerShard)
      Bucket.push_back(std::move(Name));
  }
  std::vector<std::string> Out;
  for (unsigned K = 0; K < PerShard; ++K)
    for (unsigned S = 0; S < Shards; ++S)
      if (K < ByShard[S].size())
        Out.push_back(ByShard[S][K]);
  return Out;
}

namespace {

void reference(JobInput &J, uint64_t SliceSteps, Report &Rep) {
  if (!sessionReference(J.Source, J.Engine, SliceSteps, J.Ref)) {
    Rep.wrong("generated source does not compile: %s", J.Source.c_str());
    return;
  }
  if (J.Ref.Output != J.Expected)
    Rep.wrong("%s on %s printed \"%s\", expected \"%s\"", J.Label,
              engine::engineName(J.Engine), J.Ref.Output.c_str(),
              J.Expected.c_str());
}

} // namespace

std::vector<JobInput> longJobRound(const std::vector<std::string> &Tenants,
                                   bool WrongExpected, Report &Rep) {
  const ServiceConfig Svc;
  std::vector<JobInput> Round;
  for (const PaperProgram &P : paperPrograms(WrongExpected))
    for (engine::EngineId E : serviceEngines()) {
      JobInput J;
      J.Source = P.Source;
      J.Expected = P.Expected;
      J.Engine = E;
      const size_t T = Round.size() % Tenants.size();
      J.Tenant = Tenants[T];
      J.Shard = static_cast<unsigned>(T % Svc.Shards);
      J.Label = P.Name;
      reference(J, Svc.SliceSteps, Rep);
      Round.push_back(std::move(J));
    }
  return Round;
}

TinyPool tinyPool(uint64_t Seed, size_t FreshCount,
                  const std::vector<std::string> &Tenants, bool WrongExpected,
                  Report &Rep) {
  const ServiceConfig Svc;
  const auto &Engines = serviceEngines();
  Rng R(Seed * 0xbf58476d1ce4e5b9ULL + 7);
  // Engines and tenants are dealt evenly over the pool, in a seeded order.
  const size_t PoolSize = TinyFamilies * TinyLevels;
  auto Dealt = [&](size_t Kinds) {
    std::vector<size_t> V(PoolSize);
    for (size_t I = 0; I < PoolSize; ++I)
      V[I] = I % Kinds;
    for (size_t I = PoolSize; I > 1; --I)
      std::swap(V[I - 1], V[R.below(I)]);
    return V;
  };
  const std::vector<size_t> Engine = Dealt(Engines.size());
  const std::vector<size_t> Tenant = Dealt(Tenants.size());
  TinyPool T;
  auto Make = [&](size_t I, uint64_t Salt, bool Fresh) {
    const size_t K = I % PoolSize;
    TinyProgram P = makeTiny(R, static_cast<unsigned>(K % TinyFamilies),
                             static_cast<unsigned>(K / TinyFamilies), Salt);
    JobInput J;
    J.Source = std::move(P.Source);
    J.Expected = std::move(P.Expected);
    J.Engine = Engines[Engine[K]];
    J.Tenant = Tenants[Tenant[K]];
    J.Shard = static_cast<unsigned>(Tenant[K] % Svc.Shards);
    J.Fresh = Fresh;
    J.Label = P.Family;
    if (WrongExpected && T.Pool.empty())
      J.Expected += "1";
    reference(J, Svc.SliceSteps, Rep);
    if (J.Ref.Slices != 1)
      Rep.wrong("generated job takes %llu slices, not one: %s",
                static_cast<unsigned long long>(J.Ref.Slices),
                J.Source.c_str());
    return J;
  };
  for (size_t I = 0; I < PoolSize; ++I)
    T.Pool.push_back(Make(I, I, false));
  // Fresh sources cycle through the same (family, level) pairs. Their
  // salts lie outside the pool's, so none repeats a pool source.
  for (size_t I = 0; I < FreshCount; ++I)
    T.Fresh.push_back(Make(I, 1000000 + I, true));
  return T;
}

bool checkResult(const JobInput &J, const Frame &F, Report &Rep) {
  const Reference &Ref = J.Ref;
  if (F.Type != FrameType::Result || F.Stop != Ref.Stop ||
      F.Status != Ref.Status || F.Steps != Ref.Steps ||
      F.Slices != Ref.Slices || F.Output != Ref.Output ||
      F.Output != J.Expected) {
    Rep.wrong("%s on %s: result {stop %u status %u steps %llu slices %llu "
              "output \"%s\"} differs from the plain session {stop %u status "
              "%u steps %llu slices %llu output \"%s\"} or the expected "
              "\"%s\"",
              J.Label, engine::engineName(J.Engine), F.Stop, F.Status,
              static_cast<unsigned long long>(F.Steps),
              static_cast<unsigned long long>(F.Slices), F.Output.c_str(),
              Ref.Stop, Ref.Status, static_cast<unsigned long long>(Ref.Steps),
              static_cast<unsigned long long>(Ref.Slices), Ref.Output.c_str(),
              J.Expected.c_str());
    return false;
  }
  return true;
}

void runClient(ServiceClient &Client, const LoadSpec &L, Report &Rep,
               ClientOut &Out) {
  struct Live {
    size_t Input;
    uint64_t Token;
    uint64_t StartNs;
    uint64_t NextPollNs;
  };
  const RetryPolicy &Pol = Client.policy();
  Rng Jitter(Pol.JitterSeed ^ 0x2545f4914f6cdd1dULL);
  // The cadence ServiceClient::awaitResult polls at.
  auto PollGap = [&] {
    return Pol.PollIntervalNs / 2 + Jitter.below(Pol.PollIntervalNs / 2 + 1);
  };
  const ClientStats Before = Client.clientStats();
  std::vector<Live> InFlight;
  std::vector<unsigned> PerShard(L.Shards, 0);
  std::vector<bool> Exhausted(L.Shards, !L.Pull);
  size_t NextSched = 0;

  auto Submit = [&](const Dispatch &D) {
    const JobInput &J = (*L.Inputs)[D.Input];
    const uint64_t SendNs = nowNs();
    if (L.Schedule)
      Out.LateUs.push_back((SendNs - std::min(SendNs, D.DueNs)) / 1e3);
    Frame Resp;
    bool Ok;
    {
      Span Sp("service.ServiceClient.submit", D.Token);
      Ok = Client.submit(JobTicket(J.Tenant, D.Token), J.Source, "main",
                         static_cast<uint8_t>(J.Engine), Resp);
    }
    ++Out.Jobs;
    if (!Ok || Resp.Type != FrameType::SubmitAck) {
      std::fprintf(stderr, "perfbench: submit of %s failed (%s %s)\n",
                   J.Label, frameTypeName(Resp.Type),
                   Resp.Type == FrameType::Error ? serviceErrorName(Resp.Err)
                                                 : "");
      ++Out.Failed;
      return;
    }
    ++Out.Admitted;
    ++PerShard[J.Shard];
    InFlight.push_back(
        {D.Input, D.Token, L.Schedule ? D.DueNs : SendNs, nowNs()});
  };

  for (;;) {
    // Submit what is due (open loop) or what the windows allow (closed).
    if (L.Schedule) {
      while (NextSched < L.Schedule->size() &&
             (*L.Schedule)[NextSched].DueNs <= nowNs())
        Submit((*L.Schedule)[NextSched++]);
    } else {
      for (unsigned S = 0; S < L.Shards; ++S)
        while (!Exhausted[S] && PerShard[S] < L.Window) {
          Dispatch D;
          if (!L.Pull(S, D))
            Exhausted[S] = true;
          else
            Submit(D);
        }
    }
    // Poll every outstanding job whose poll is due.
    uint64_t Wake = UINT64_MAX;
    for (size_t I = 0; I < InFlight.size();) {
      Live &J = InFlight[I];
      if (J.NextPollNs > nowNs()) {
        Wake = std::min(Wake, J.NextPollNs);
        ++I;
        continue;
      }
      const JobInput &In = (*L.Inputs)[J.Input];
      Frame Req, Resp;
      Req.Type = FrameType::PollReq;
      Req.setTicket(JobTicket(In.Tenant, J.Token));
      bool Ok;
      {
        Span Sp("service.ServiceClient.poll", J.Token);
        Ok = Client.call(Req, Resp);
      }
      if (Ok && Resp.Type == FrameType::Pending) {
        J.NextPollNs = nowNs() + PollGap();
        Wake = std::min(Wake, J.NextPollNs);
        ++I;
        continue;
      }
      const uint64_t Done = nowNs();
      if (Ok && Resp.Type == FrameType::Result) {
        checkResult(In, Resp, Rep);
        Out.LatencyMs.push_back((Done - J.StartNs) / 1e6);
        Out.StartNs.push_back(J.StartNs);
        Out.RefSteps += In.Ref.RefSteps;
      } else {
        std::fprintf(stderr, "perfbench: poll of %s failed (%s)\n", In.Label,
                     frameTypeName(Resp.Type));
        ++Out.Failed;
      }
      --PerShard[In.Shard];
      J = InFlight.back();
      InFlight.pop_back();
    }
    const bool MoreOpen = L.Schedule && NextSched < L.Schedule->size();
    bool MoreClosed = false;
    for (unsigned S = 0; S < L.Shards; ++S)
      if (!Exhausted[S]) {
        MoreClosed = true;
        if (PerShard[S] < L.Window)
          Wake = 0; // a window has room: refill it now
      }
    if (InFlight.empty() && !MoreOpen && !MoreClosed)
      break;
    if (MoreOpen)
      Wake = std::min(Wake, (*L.Schedule)[NextSched].DueNs);
    const uint64_t Now = nowNs();
    if (Wake != UINT64_MAX && Wake > Now)
      std::this_thread::sleep_for(std::chrono::nanoseconds(Wake - Now));
  }
  Out.Frames += Client.clientStats().Attempts - Before.Attempts;
  Out.Rejects += Client.clientStats().Rejects - Before.Rejects;
}

namespace {

/// The service, its in-process transport and the inputs of one set-up.
struct ServiceRig {
  std::unique_ptr<ServiceFrontEnd> FE;
  std::unique_ptr<LocalHost> Host;
  std::vector<std::string> Tenants;
};

void buildRig(ServiceRig &Rig) {
  // The transport goes first: its serve loops call into the front end.
  Rig.Host.reset();
  Rig.FE.reset();
  // Hand the previous set-up's freed memory back, so peak_rss_mb measures
  // the service the run uses rather than where the allocator happened to
  // leave the discarded one.
  malloc_trim(0);
  Rig.FE = std::make_unique<ServiceFrontEnd>(ServiceConfig{});
  Rig.Host = std::make_unique<LocalHost>(*Rig.FE);
  Rig.Tenants = balancedTenants(*Rig.FE, 2);
}

ServiceClient::Connector connector(ServiceRig &Rig) {
  return [&Rig] { return Rig.Host->connect(); };
}

RetryPolicy clientPolicy(uint64_t Seed, unsigned Client) {
  RetryPolicy P;
  P.JitterSeed = Seed * 0x9e3779b97f4a7c15ULL + Client + 1;
  return P;
}

/// Runs \p Spec through a fresh client of \p Rig on this thread.
ClientOut runLoad(ServiceRig &Rig, uint64_t Seed, const LoadSpec &Spec,
                  Report &Rep) {
  ServiceClient Client(connector(Rig), clientPolicy(Seed, 0));
  ClientOut Out;
  runClient(Client, Spec, Rep, Out);
  return Out;
}

/// Exactly-once, service side: each of the \p Jobs acknowledged submits
/// was admitted once and completed once.
void checkExactlyOnce(ServiceFrontEnd &FE, uint64_t Jobs, Report &Rep) {
  const ServiceStats S = FE.statsSnapshot();
  if (S.Submitted != Jobs || S.Completed != Jobs)
    Rep.wrong("exactly-once: %llu jobs submitted, service admitted %llu and "
              "completed %llu",
              static_cast<unsigned long long>(Jobs),
              static_cast<unsigned long long>(S.Submitted),
              static_cast<unsigned long long>(S.Completed));
  if (S.totalRejected())
    std::fprintf(stderr, "perfbench: the service shed %llu submits\n",
                 static_cast<unsigned long long>(S.totalRejected()));
}

template <typename BuildFn>
double repeatedSetup(const Options &Opt, BuildFn Build) {
  std::vector<double> S;
  for (int I = 0; I < (Opt.Smoke ? 1 : 3); ++I) {
    const uint64_t T0 = nowNs();
    Build();
    S.push_back((nowNs() - T0) / 1e9);
  }
  return median(S);
}

} // namespace

EndToEnd runLongJobs(const Options &Opt, Report &Rep) {
  EndToEnd E;
  ServiceRig Rig;
  std::vector<JobInput> Round;
  E.SetupS = repeatedSetup(Opt, [&] {
    buildRig(Rig);
    Round = longJobRound(Rig.Tenants, Opt.WrongExpected, Rep);
  });

  // Closed loop in whole rounds: every (program, engine) pair once per
  // round, in a seeded order; a round starts only while time is left.
  // Each shard keeps Window jobs in flight, more than its one worker, so
  // the scheduler always has a choice and no worker idles.
  const unsigned Shards = Rig.FE->config().Shards;
  const unsigned Window = 2;
  std::vector<std::deque<Dispatch>> Queue(Shards);
  Rng R(Opt.Seed * 0xd1342543de82ef95ULL + 3);
  uint64_t NextToken = 1, Rounds = 0;
  const uint64_t Start = nowNs();
  const uint64_t Stop = Start + static_cast<uint64_t>(Opt.Seconds * 1e9);
  LoadSpec Spec;
  Spec.Inputs = &Round;
  Spec.Shards = Shards;
  Spec.Window = Window;
  Spec.Pull = [&](unsigned S, Dispatch &D) {
    if (Queue[S].empty()) {
      if (Rounds && nowNs() >= Stop)
        return false;
      std::vector<size_t> Order(Round.size());
      for (size_t I = 0; I < Order.size(); ++I)
        Order[I] = I;
      for (size_t I = Order.size(); I > 1; --I)
        std::swap(Order[I - 1], Order[R.below(I)]);
      // Queued at the front and taken from the back, so rounds run in
      // order on each shard.
      for (size_t K = Order.size(); K-- > 0;)
        Queue[Round[Order[K]].Shard].push_front({Order[K], 0, NextToken++});
      ++Rounds;
    }
    D = Queue[S].back();
    Queue[S].pop_back();
    return true;
  };
  const ClientOut All = runLoad(Rig, Opt.Seed, Spec, Rep);
  const double Wall = (nowNs() - Start) / 1e9;
  Rep.attempt(All.Jobs);
  Rep.failedOp(All.Failed);
  checkExactlyOnce(*Rig.FE, All.Admitted, Rep);

  E.GuestStepsPerS = All.RefSteps / Wall;
  E.JobsPerS = All.LatencyMs.size() / Wall;
  E.MaxRateJobsPerS = E.JobsPerS; // closed loop: the rate it sustains
  E.JobP50Ms = percentile(All.LatencyMs, 50);
  E.JobP90Ms = percentile(All.LatencyMs, 90);
  E.JobP99Ms = percentile(All.LatencyMs, 99);
  E.PeakRssMb = peakRssMb();
  std::fprintf(stderr,
               "long-jobs: %zu jobs (%llu rounds of %zu) in %.2f s, %u in "
               "flight per shard, %.1f frames/job, %llu rejects honored\n",
               All.LatencyMs.size(), static_cast<unsigned long long>(Rounds),
               Round.size(), Wall, Window,
               static_cast<double>(All.Frames) /
                   std::max<uint64_t>(1, All.Jobs),
               static_cast<unsigned long long>(All.Rejects));
  Rig.FE->shutdown();
  return E;
}

//===----------------------------------------------------------------------===//
// short-jobs
//===----------------------------------------------------------------------===//

namespace {

/// The fixed arrival rates, lowest first; the last is the nominal rate.
constexpr double Rates[] = {200, 400, NominalRate};
constexpr size_t NumRates = sizeof(Rates) / sizeof(Rates[0]);
/// The latency limit on job_p99_ms that a rate must meet to count.
constexpr double LatencyLimitMs = 25;
/// How late (p99) the generator may send and still have offered the rate.
constexpr double LateLimitUs = 10'000;
/// Share of the run each rate gets; the nominal rate gets the most, since
/// its percentiles are the reported ones.
constexpr double PhaseShare[NumRates] = {0.2, 0.2, 0.6};
/// Never-seen sources per rate phase: 1 in 150 of the jobs of a 30-second
/// run, so each window holds about eight. Fixed counts, so the memory
/// they retain does not grow with the run length.
constexpr double FreshShare = 1.0 / 150;
constexpr size_t FreshPerPhase[NumRates] = {8, 16, 72};

/// Percentiles are taken per window of due times holding about this many
/// jobs (2 s at the nominal rate), so p99 has at least ten samples beyond
/// it in every window.
constexpr double WindowJobs = 1200;
constexpr size_t MinWindowJobs = 1000;

struct Phase {
  double Rate = 0;
  ClientOut Out;
  double WallS = 0;
  double P50Ms = 0, P90Ms = 0, P99Ms = 0; ///< medians over windows
  bool Passed = false;
};

/// Cuts the phase that started at \p T0 into windows of due time and sets
/// each percentile to its median over the windows holding at least
/// MinWindowJobs jobs (a phase too short for one is one window). A few
/// seconds of host-side stall then move one or two windows, not the
/// figure.
void windowed(Phase &Ph, uint64_t T0) {
  const ClientOut &O = Ph.Out;
  const uint64_t WindowNs = static_cast<uint64_t>(WindowJobs / Ph.Rate * 1e9);
  std::vector<std::vector<double>> W;
  for (size_t I = 0; I < O.StartNs.size(); ++I) {
    const size_t K = (O.StartNs[I] - std::min(O.StartNs[I], T0)) / WindowNs;
    if (K >= W.size())
      W.resize(K + 1);
    W[K].push_back(O.LatencyMs[I]);
  }
  std::vector<double> P50, P90, P99;
  for (const std::vector<double> &X : W)
    if (X.size() >= MinWindowJobs) {
      P50.push_back(percentile(X, 50));
      P90.push_back(percentile(X, 90));
      P99.push_back(percentile(X, 99));
    }
  if (P50.empty()) {
    P50.push_back(percentile(O.LatencyMs, 50));
    P90.push_back(percentile(O.LatencyMs, 90));
    P99.push_back(percentile(O.LatencyMs, 99));
  }
  Ph.P50Ms = median(P50);
  Ph.P90Ms = median(P90);
  Ph.P99Ms = median(P99);
}

/// One open-loop phase at \p Rate for \p Seconds: a seeded Poisson
/// schedule that deals the pool out in seeded rounds, with the fresh jobs
/// [FreshBegin, FreshEnd) spread evenly through it. Fresh inputs are
/// appended to \p Inputs; tokens continue from \p Token.
Phase runPhase(ServiceRig &Rig, double Rate, double Seconds, Rng &R,
               const TinyPool &Pool, size_t FreshBegin, size_t FreshEnd,
               std::vector<JobInput> &Inputs, uint64_t &Token, uint64_t Seed,
               Report &Rep) {
  Phase Ph;
  Ph.Rate = Rate;
  const size_t N = std::max<size_t>(1, static_cast<size_t>(Rate * Seconds));
  const size_t NumFresh = FreshEnd - FreshBegin;
  std::vector<Dispatch> Sched;
  std::vector<size_t> Deck;
  const uint64_t T0 = nowNs() + 2'000'000;
  double At = 0;
  size_t NextFresh = 0;
  for (size_t I = 0; I < N; ++I) {
    At += -std::log(1.0 - (R.next() >> 11) * 0x1.0p-53) / Rate;
    size_t Input;
    if (NextFresh < NumFresh && I * NumFresh >= NextFresh * N) {
      Input = Inputs.size();
      Inputs.push_back(Pool.Fresh[FreshBegin + NextFresh++]);
    } else {
      if (Deck.empty()) {
        for (size_t K = 0; K < Pool.Pool.size(); ++K)
          Deck.push_back(K);
        for (size_t K = Deck.size(); K > 1; --K)
          std::swap(Deck[K - 1], Deck[R.below(K)]);
      }
      Input = Deck.back();
      Deck.pop_back();
    }
    Sched.push_back({Input, T0 + static_cast<uint64_t>(At * 1e9), Token++});
  }
  LoadSpec Spec;
  Spec.Inputs = &Inputs;
  Spec.Schedule = &Sched;
  Spec.Shards = Rig.FE->config().Shards;
  Ph.Out = runLoad(Rig, Seed + static_cast<uint64_t>(Rate), Spec, Rep);
  const ClientOut &O = Ph.Out;
  uint64_t LastDone = T0;
  for (size_t I = 0; I < O.StartNs.size(); ++I)
    LastDone = std::max(
        LastDone, O.StartNs[I] + static_cast<uint64_t>(O.LatencyMs[I] * 1e6));
  Ph.WallS = (LastDone - T0) / 1e9;

  windowed(Ph, T0);

  // The backlog grows when the last quarter of jobs waits much longer
  // than the first.
  const size_t Q = O.LatencyMs.size() / 4;
  const std::vector<double> First(O.LatencyMs.begin(), O.LatencyMs.begin() + Q),
      Last(O.LatencyMs.end() - Q, O.LatencyMs.end());
  const bool Growing = Q && median(Last) > 2 * median(First) + 2;
  const double LateP99 = percentile(O.LateUs, 99);
  Ph.Passed = Ph.P99Ms <= LatencyLimitMs && !Growing && !O.Failed &&
              !O.Rejects && LateP99 <= LateLimitUs;
  std::fprintf(stderr,
               "short-jobs: %.0f jobs/s: %zu jobs (%zu fresh), achieved %.1f "
               "jobs/s, p50 %.3f p99 %.3f ms (whole phase %.3f, %.3f), late "
               "p99 %.0f us, %.1f frames/job, backlog %s, %s\n",
               Rate, N, NumFresh, O.LatencyMs.size() / Ph.WallS, Ph.P50Ms,
               Ph.P99Ms, percentile(O.LatencyMs, 50),
               percentile(O.LatencyMs, 99), LateP99,
               static_cast<double>(Ph.Out.Frames) / N,
               Growing ? "growing" : "steady", Ph.Passed ? "meets" : "misses");
  return Ph;
}

/// A front end whose program cache already holds every pool program:
/// the short-jobs set-up.
void buildShortRig(ServiceRig &Rig, TinyPool &Pool, uint64_t Seed,
                   size_t Fresh, bool WrongExpected, Report &Rep) {
  buildRig(Rig);
  Pool = tinyPool(Seed, Fresh, Rig.Tenants, WrongExpected, Rep);
  ServiceClient Client(connector(Rig), clientPolicy(Seed, 1));
  for (size_t I = 0; I < Pool.Pool.size(); ++I) {
    const JobTicket T(Pool.Pool[I].Tenant, 1'000'000'000 + I);
    Frame Resp;
    if (!Client.submit(T, Pool.Pool[I].Source, "main",
                       static_cast<uint8_t>(Pool.Pool[I].Engine), Resp) ||
        !Client.awaitResult(T, Resp))
      Rep.wrong("warm-up job %zu did not complete", I);
    else
      checkResult(Pool.Pool[I], Resp, Rep);
  }
}

} // namespace

ProbeOut nominalProbe(uint64_t Seed, double Seconds, Report &Rep) {
  ServiceRig Rig;
  TinyPool Pool;
  const size_t Fresh = std::max<size_t>(
      1, static_cast<size_t>(NominalRate * Seconds * FreshShare));
  buildShortRig(Rig, Pool, Seed, Fresh, false, Rep);
  std::vector<JobInput> Inputs = Pool.Pool;
  Rng R(Seed * 0x94d049bb133111ebULL + 11);
  uint64_t Token = 1;
  const Phase Ph = runPhase(Rig, NominalRate, Seconds, R, Pool, 0, Fresh,
                            Inputs, Token, Seed, Rep);
  checkExactlyOnce(*Rig.FE, Pool.Pool.size() + Ph.Out.Admitted, Rep);
  Rig.FE->shutdown();
  return {percentile(Ph.Out.LateUs, 99),
          static_cast<double>(Ph.Out.Frames) /
              std::max<uint64_t>(1, Ph.Out.Jobs)};
}

EndToEnd runShortJobs(const Options &Opt, Report &Rep) {
  EndToEnd E;
  ServiceRig Rig;
  TinyPool Pool;
  size_t FreshBegin[NumRates + 1] = {0};
  for (size_t K = 0; K < NumRates; ++K)
    FreshBegin[K + 1] = FreshBegin[K] + (Opt.Smoke ? 2 : FreshPerPhase[K]);
  E.SetupS = repeatedSetup(Opt, [&] {
    buildShortRig(Rig, Pool, Opt.Seed, FreshBegin[NumRates],
                  Opt.WrongExpected, Rep);
  });
  uint64_t Jobs = Pool.Pool.size();

  std::vector<JobInput> Inputs = Pool.Pool; // fresh jobs get appended
  Rng R(Opt.Seed * 0x94d049bb133111ebULL + 5);
  uint64_t Token = 1;
  std::vector<Phase> Phases;
  const IdleSpinners Spin;
  for (size_t K = 0; K < NumRates; ++K) {
    Phases.push_back(runPhase(Rig, Rates[K], Opt.Seconds * PhaseShare[K], R,
                              Pool, FreshBegin[K],
                              FreshBegin[K + 1], Inputs, Token, Opt.Seed,
                              Rep));
    Jobs += Phases.back().Out.Admitted;
    Rep.attempt(Phases.back().Out.Jobs);
    Rep.failedOp(Phases.back().Out.Failed);
  }
  checkExactlyOnce(*Rig.FE, Jobs, Rep);

  const Phase &Nom = Phases.back();
  E.JobP50Ms = Nom.P50Ms;
  E.JobP90Ms = Nom.P90Ms;
  E.JobP99Ms = Nom.P99Ms;
  E.JobsPerS = Nom.Out.LatencyMs.size() / Nom.WallS;
  uint64_t Steps = 0;
  double Wall = 0;
  for (const Phase &P : Phases) {
    Steps += P.Out.RefSteps;
    Wall += P.WallS;
    if (P.Passed)
      E.MaxRateJobsPerS = P.Out.LatencyMs.size() / P.WallS;
  }
  if (!E.MaxRateJobsPerS) {
    // Not even the lowest rate meets the limit: report half of it, so the
    // figure still reads as a sharp regression rather than a zero.
    std::fprintf(stderr, "short-jobs: no rate meets the %.0f ms limit\n",
                 LatencyLimitMs);
    E.MaxRateJobsPerS = Rates[0] / 2;
  }
  E.GuestStepsPerS = Steps / Wall;
  E.PeakRssMb = peakRssMb();
  Rig.FE->shutdown();
  return E;
}

} // namespace pb
