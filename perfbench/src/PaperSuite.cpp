//===-- perfbench/src/PaperSuite.cpp - The paper-suite workload -----------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// paper-suite: the four paper programs, one-shot and in-process, on
/// every paper engine and on the adaptive tier path forth_run --adaptive
/// takes. The engines do nearly all of the work here, so dispatch and
/// stack-caching changes show and service changes should not.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>

using namespace sc;

namespace pb {

size_t paperConfigs() { return paperEngines().size() + 1; }

const char *paperConfigName(size_t Config) {
  return Config < paperEngines().size()
             ? engine::engineName(paperEngines()[Config])
             : "adaptive";
}

namespace {

/// One adaptive run the way forth_run --adaptive --repeat runs it: a fresh
/// entry adopts whatever tier the program has earned, then bounded
/// dispatches with a migration poll between them.
vm::RunOutcome runAdaptive(PaperSet &S, size_t P) {
  tier::TierController &Tier = *S.Tier;
  session::VmSession &Sess = *S.TierSess[P];
  const vm::Code &Prog = S.Sys[P]->Prog;
  *S.TierVm[P] = S.Sys[P]->Machine;
  Sess.reset();
  unsigned Now = 0;
  Sess.migrateTo(Tier.acquire(Prog, &Now));
  uint32_t Entry = Sess.prepared().entryOf("main");
  vm::RunOutcome Total;
  for (;;) {
    session::SessionResult R;
    {
      Span Sp("session.run");
      R = Sess.run(Entry, 32);
    }
    Total.Steps += R.Outcome.Steps;
    Total.Status = R.Outcome.Status;
    Tier.recordSteps(Prog, Now, R.Outcome.Steps);
    if (R.Stop != session::StopKind::Preempted)
      break;
    Entry = R.ResumePc;
    unsigned Next = 0;
    if (auto Hot = Tier.pollMigration(Prog.identity(), Now, &Next)) {
      Sess.migrateTo(std::move(Hot));
      Now = Next;
    }
  }
  return Total;
}

} // namespace

void buildPaperSet(PaperSet &S, bool WrongExpected, Report &Rep) {
  S.Progs = paperPrograms(WrongExpected);
  const auto &Engines = paperEngines();
  tier::TierPolicy TP; // forth_run --adaptive's defaults
  S.Tier = std::make_unique<tier::TierController>(TP, &S.Cache);
  for (size_t P = 0; P < S.Progs.size(); ++P) {
    auto Sys = std::make_unique<forth::System>();
    bool Loaded;
    {
      Span Sp("forth.System.load");
      Loaded = Sys->load(S.Progs[P].Source);
    }
    if (!Loaded) {
      Rep.wrong("%s does not compile: %s", S.Progs[P].Name,
                Sys->error().c_str());
      std::exit(1);
    }
    S.Entry.push_back(Sys->entryOf("main"));
    S.Insts += Sys->Prog.size();
    std::vector<std::shared_ptr<const prepare::PreparedCode>> PCs;
    for (engine::EngineId E : Engines) {
      Span Sp("prepare.PrepareCache.getOrPrepare");
      PCs.push_back(S.Cache.getOrPrepare(Sys->Prog, E));
    }
    S.PC.push_back(std::move(PCs));
    S.Sys.push_back(std::move(Sys));
    S.RefSteps.push_back(0);
    // The adaptive path starts cold, like a fresh forth_run --adaptive.
    S.TierVm.push_back(std::make_unique<vm::Vm>(S.Sys[P]->Machine));
    S.TierSess.push_back(std::make_unique<session::VmSession>(
        S.Tier->acquire(S.Sys[P]->Prog), *S.TierVm[P]));
  }
  // Reference run on switch: the expected checksum line and the step
  // count every engine's work is measured in. Then one run of every
  // configuration, which also lets the adaptive path earn its tier.
  for (size_t P = 0; P < S.Progs.size(); ++P) {
    S.Scratch = S.Sys[P]->Machine;
    vm::ExecContext Ctx(S.Sys[P]->Prog, S.Scratch);
    engine::RunOptions O;
    O.Entry = S.Entry[P];
    O.Prepared = S.PC[P][0].get();
    const vm::RunOutcome R =
        engine::runEngine(engine::referenceEngine(), S.Sys[P]->Prog, Ctx, O);
    S.RefSteps[P] = R.Steps;
    if (R.Status != vm::RunStatus::Halted ||
        S.Scratch.Out != S.Progs[P].Expected)
      Rep.wrong("%s on switch printed \"%s\", expected \"%s\"",
                S.Progs[P].Name, S.Scratch.Out.c_str(),
                S.Progs[P].Expected.c_str());
    for (size_t C = 0; C < paperConfigs(); ++C)
      runPaper(S, P, C, Rep);
  }
}

uint64_t runPaper(PaperSet &S, size_t P, size_t Config, Report &Rep) {
  const auto &Engines = paperEngines();
  vm::RunOutcome R;
  const std::string *Out = nullptr;
  uint64_t T0 = 0, T1 = 0;
  if (Config < Engines.size()) {
    S.Scratch = S.Sys[P]->Machine;
    vm::ExecContext Ctx(S.Sys[P]->Prog, S.Scratch);
    engine::RunOptions O;
    O.Entry = S.Entry[P];
    O.Prepared = S.PC[P][Config].get();
    T0 = nowNs();
    {
      Span Sp("engine.runEngine");
      R = engine::runEngine(Engines[Config], S.Sys[P]->Prog, Ctx, O);
    }
    T1 = nowNs();
    Out = &S.Scratch.Out;
    // Stream engines execute exactly the reference instruction sequence.
    if (!engine::engineInfo(Engines[Config]).Caps.Static &&
        S.RefSteps[P] && R.Steps != S.RefSteps[P])
      Rep.wrong("%s on %s retired %llu steps, switch %llu", S.Progs[P].Name,
                paperConfigName(Config),
                static_cast<unsigned long long>(R.Steps),
                static_cast<unsigned long long>(S.RefSteps[P]));
  } else {
    T0 = nowNs();
    R = runAdaptive(S, P);
    T1 = nowNs();
    Out = &S.TierVm[P]->Out;
  }
  // Stack caching must not change what a program prints.
  if (R.Status != vm::RunStatus::Halted || *Out != S.Progs[P].Expected)
    Rep.wrong("%s on %s printed \"%s\" (status %s), expected \"%s\"",
              S.Progs[P].Name, paperConfigName(Config), Out->c_str(),
              vm::runStatusName(R.Status), S.Progs[P].Expected.c_str());
  return T1 - T0;
}

EndToEnd runPaperSuite(const Options &Opt, Report &Rep) {
  EndToEnd E;
  // Set-up is repeated and its median reported, so one slow page-in
  // does not decide setup_s.
  std::unique_ptr<PaperSet> S;
  std::vector<double> SetupS;
  for (int I = 0; I < (Opt.Smoke ? 1 : 3); ++I) {
    S.reset();
    const uint64_t T0 = nowNs();
    S = std::make_unique<PaperSet>();
    buildPaperSet(*S, Opt.WrongExpected, Rep);
    SetupS.push_back((nowNs() - T0) / 1e9);
  }
  E.SetupS = median(SetupS);

  // Whole rounds: every (program, configuration) pair once per round, in
  // a seeded order, so every run does the same mix of work.
  std::vector<std::pair<size_t, size_t>> Round;
  for (size_t P = 0; P < S->Progs.size(); ++P)
    for (size_t C = 0; C < paperConfigs(); ++C)
      Round.push_back({P, C});
  Rng R(Opt.Seed * 0x9e3779b97f4a7c15ULL + 1);
  // The host's speed drifts by a third over minutes, and this workload is
  // one thread of pure engine work, so its times track that drift one to
  // one. Each round is bracketed by the host-speed gauge and its times are
  // scaled to the reference host by the mean of the two readings.
  std::vector<double> LatMs, RoundMs, RoundSteps, RoundJobs, RawSteps, Gauge;
  const uint64_t Start = nowNs();
  const uint64_t Stop = Start + static_cast<uint64_t>(Opt.Seconds * 1e9);
  uint64_t GaugeBefore = gaugeNs();
  do {
    for (size_t I = Round.size(); I > 1; --I)
      std::swap(Round[I - 1], Round[R.below(I)]);
    RoundMs.clear();
    const uint64_t R0 = nowNs();
    uint64_t Steps = 0;
    for (const auto &[P, C] : Round) {
      Rep.attempt();
      RoundMs.push_back(runPaper(*S, P, C, Rep) / 1e6);
      Steps += S->RefSteps[P];
    }
    const double RoundS = (nowNs() - R0) / 1e9;
    const uint64_t GaugeAfter = gaugeNs();
    const double Speed = GaugeRefNs * 2 / (GaugeBefore + GaugeAfter);
    Gauge.push_back(GaugeBefore / 1e6);
    GaugeBefore = GaugeAfter;
    for (double Ms : RoundMs)
      LatMs.push_back(Ms * Speed);
    RawSteps.push_back(Steps / RoundS);
    RoundSteps.push_back(Steps / (RoundS * Speed));
    RoundJobs.push_back(Round.size() / (RoundS * Speed));
  } while (nowNs() < Stop);
  const double Wall = (nowNs() - Start) / 1e9;

  // Every round is the same work, so its rate is one sample of the
  // throughput; the median over rounds is robust to a slow moment.
  E.GuestStepsPerS = median(RoundSteps);
  E.JobsPerS = median(RoundJobs);
  E.MaxRateJobsPerS = E.JobsPerS;
  E.JobP50Ms = percentile(LatMs, 50);
  E.JobP90Ms = percentile(LatMs, 90);
  E.JobP99Ms = percentile(LatMs, 99);
  E.PeakRssMb = peakRssMb();
  std::fprintf(stderr,
               "paper-suite: %zu runs in %.2f s (%zu rounds of %zu), tier "
               "promotions %llu; unscaled %.4g steps/s at a gauge of %.3f "
               "ms (reference %.3f ms)\n",
               LatMs.size(), Wall, LatMs.size() / Round.size(), Round.size(),
               static_cast<unsigned long long>(
                   S->Tier->counters().Promotions),
               median(RawSteps), median(Gauge), GaugeRefNs / 1e6);
  return E;
}

} // namespace pb
