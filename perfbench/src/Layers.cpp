//===-- perfbench/src/Layers.cpp - Per-layer metrics of traced runs -------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layer suite of a traced run. Every layer is measured from outside,
/// by timing calls into its public functions: System::load,
/// PrepareCache::getOrPrepare, the registry's runEngine, VmSession::run,
/// snapshot::serializeInto/restore, SessionScheduler, encodeFrame/
/// decodeFrame, ServiceFrontEnd::handle, ServiceClient over LocalChannel
/// and over a loopback ServiceServer.
///
/// Layers that run on service worker threads cannot be timed from the
/// caller, so the workload's job list is replayed layer by layer: engine
/// one-shot, VmSession without checkpoints, VmSession at the service's
/// slice size and checkpoint cadence, SessionScheduler, the front end's
/// handle(), and ServiceClient over LocalChannel. Each step's difference
/// from the one before is that layer's added cost. The ledger check then
/// holds the deltas against a separate, traced end-to-end pass of the
/// same jobs.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "sched/SessionScheduler.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "snapshot/Snapshot.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

using namespace sc;
using namespace sc::service;

namespace pb {

namespace {

/// The ledger's tolerance: the replay's layer deltas must sum to the
/// traced end-to-end job time within this share of it.
constexpr double LedgerTolerance = 0.25;

double us(uint64_t Ns) { return Ns / 1e3; }

//===----------------------------------------------------------------------===//
// Engines, tiers, compile, prepare, snapshots
//===----------------------------------------------------------------------===//

void paperLayers(const Options &Opt, Report &Rep) {
  PaperSet S;
  buildPaperSet(S, false, Rep);
  const size_t Reps = Opt.Smoke ? 1 : 5;
  const size_t NP = S.Progs.size(), NC = paperConfigs();
  // Interleaved repetitions; the median per (engine, program).
  std::vector<std::vector<std::vector<double>>> Ns(
      NP, std::vector<std::vector<double>>(NC));
  for (size_t R = 0; R < Reps; ++R)
    for (size_t P = 0; P < NP; ++P)
      for (size_t C = 0; C < NC; ++C)
        Ns[P][C].push_back(static_cast<double>(runPaper(S, P, C, Rep)));
  for (size_t C = 0; C < NC; ++C)
    for (size_t P = 0; P < NP; ++P) {
      const std::string Name =
          C + 1 < NC ? std::string("engine.") + paperConfigName(C) + "." +
                           S.Progs[P].Name + ".ns_per_step"
                     : std::string("tier.adaptive.") + S.Progs[P].Name +
                           ".ns_per_step";
      Rep.add(Name, median(Ns[P][C]) / S.RefSteps[P], "ns");
    }
  Rep.add("tier.promotions",
          static_cast<double>(S.Tier->counters().Promotions), "count");

  for (size_t P = 0; P < NP; ++P) {
    std::vector<double> Us;
    for (size_t R = 0; R < Reps; ++R) {
      forth::System Sys;
      const uint64_t T0 = nowNs();
      {
        Span Sp("forth.System.load");
        Sys.load(S.Progs[P].Source);
      }
      Us.push_back(us(nowNs() - T0));
    }
    Rep.add(std::string("forth.compile_us.") + S.Progs[P].Name, median(Us),
            "us");
  }

  const auto &Engines = paperEngines();
  for (size_t E = 0; E < Engines.size(); ++E) {
    std::vector<double> PerInst;
    for (size_t R = 0; R < Reps; ++R) {
      prepare::PrepareCache Fresh;
      uint64_t Ns = 0;
      for (size_t P = 0; P < NP; ++P) {
        const uint64_t T0 = nowNs();
        Span Sp("prepare.PrepareCache.getOrPrepare");
        Fresh.getOrPrepare(S.Sys[P]->Prog, Engines[E]);
        Ns += nowNs() - T0;
      }
      PerInst.push_back(static_cast<double>(Ns) / S.Insts);
    }
    Rep.add(std::string("prepare.ns_per_inst.") +
                engine::engineName(Engines[E]),
            median(PerInst), "ns");
  }

  // Checkpoint cost mid-run: each program stopped halfway through its
  // slices at the service's slice size.
  const uint64_t Slice = ServiceConfig().SliceSteps;
  for (size_t P = 0; P < NP; ++P) {
    vm::Vm Machine = S.Sys[P]->Machine;
    session::SessionPolicy Pol;
    Pol.SliceSteps = Slice;
    session::VmSession Sess(S.PC[P][0], Machine, Pol);
    const uint64_t Half = std::max<uint64_t>(1, S.RefSteps[P] / Slice / 2);
    const session::SessionResult R = Sess.run(S.Entry[P], Half);
    snapshot::MachineState MS;
    MS.Pc = R.ResumePc;
    MS.StepsRetired = R.Outcome.Steps;
    MS.SlicesRetired = R.Slices;
    std::vector<uint8_t> Snap, Again;
    std::vector<double> SerUs, ResUs;
    for (size_t I = 0; I < (Opt.Smoke ? 3 : 21); ++I) {
      const uint64_t T0 = nowNs();
      {
        Span Sp("snapshot.serializeInto");
        snapshot::serializeInto(Snap, Sess.context(), Machine, MS);
      }
      SerUs.push_back(us(nowNs() - T0));
      vm::Vm Into(0);
      vm::ExecContext Ctx(S.PC[P][0]->program(), Into);
      snapshot::MachineState Got;
      const uint64_t T1 = nowNs();
      snapshot::SnapshotError Err;
      {
        Span Sp("snapshot.restore");
        Err = snapshot::restore(Snap.data(), Snap.size(),
                                S.PC[P][0]->program(), Ctx, Into, Got);
      }
      ResUs.push_back(us(nowNs() - T1));
      // The round trip must be bit-identical.
      snapshot::serializeInto(Again, Ctx, Into, Got);
      if (Err != snapshot::SnapshotError::None || Again != Snap ||
          Got.Pc != MS.Pc)
        Rep.wrong("snapshot of %s does not round-trip (%s)", S.Progs[P].Name,
                  snapshot::snapshotErrorName(Err));
    }
    const std::string Prog = S.Progs[P].Name;
    Rep.add("snapshot.serialize_us." + Prog, median(SerUs), "us");
    Rep.add("snapshot.restore_us." + Prog, median(ResUs), "us");
    Rep.add("snapshot.bytes." + Prog, static_cast<double>(Snap.size()),
            "bytes");
  }

  // Per-slice cost of the session layer. At 64-step slices a session makes
  // enough engine entries for their cost to stand above run-to-run noise.
  std::vector<double> PerSlice;
  for (size_t R = 0; R < Reps; ++R) {
    uint64_t Oneshot = 0, Sliced = 0, Slices = 0;
    for (size_t P = 0; P < NP; ++P) {
      Oneshot += runPaper(S, P, 1, Rep); // threaded
      S.Scratch = S.Sys[P]->Machine;
      session::SessionPolicy Pol;
      Pol.SliceSteps = 64;
      session::VmSession Sess(S.PC[P][1], S.Scratch, Pol);
      const uint64_t T0 = nowNs();
      session::SessionResult Res;
      {
        Span Sp("session.VmSession.run");
        Res = Sess.run(S.Entry[P]);
      }
      Sliced += nowNs() - T0;
      Slices += Res.Slices;
      if (S.Scratch.Out != S.Progs[P].Expected)
        Rep.wrong("%s sliced printed \"%s\"", S.Progs[P].Name,
                  S.Scratch.Out.c_str());
    }
    PerSlice.push_back((static_cast<double>(Sliced) - Oneshot) / Slices);
  }
  Rep.add("session.slice_overhead_ns", median(PerSlice), "ns");
}

//===----------------------------------------------------------------------===//
// Wire format, front end, transports, retained memory
//===----------------------------------------------------------------------===//

void frameLayers(const Options &Opt, Report &Rep) {
  Frame Submit;
  Submit.Type = FrameType::SubmitReq;
  Submit.Tenant = "tenant-0";
  Submit.Token = 12345;
  Submit.Source = ": main 0 100 0 do i + loop . ;";
  Submit.Word = "main";
  Frame Poll;
  Poll.Type = FrameType::PollReq;
  Poll.Tenant = "tenant-0";
  Poll.Token = 12345;
  Frame Result;
  Result.Type = FrameType::Result;
  Result.Token = 12345;
  Result.Steps = 411;
  Result.Slices = 1;
  Result.Output = "4950 ";
  const std::pair<const char *, const Frame *> Types[] = {
      {"submit", &Submit}, {"poll", &Poll}, {"result", &Result}};
  const size_t Batch = Opt.Smoke ? 1000 : 20000;
  for (const auto &[Name, F] : Types) {
    std::vector<double> Enc, Dec;
    std::vector<uint8_t> Bytes;
    Frame Out;
    for (int R = 0; R < 5; ++R) {
      uint64_t T0 = nowNs();
      for (size_t I = 0; I < Batch; ++I) {
        Span Sp("service.encodeFrame");
        Bytes = encodeFrame(*F);
      }
      Enc.push_back(static_cast<double>(nowNs() - T0) / Batch);
      T0 = nowNs();
      for (size_t I = 0; I < Batch; ++I) {
        Span Sp("service.decodeFrame");
        if (decodeFrame(Bytes, Out) != ServiceError::None)
          Rep.wrong("a %s frame does not decode", Name);
      }
      Dec.push_back(static_cast<double>(nowNs() - T0) / Batch);
    }
    if (Out.Type != F->Type || Out.Token != F->Token ||
        Out.Source != F->Source || Out.Output != F->Output)
      Rep.wrong("a %s frame does not round-trip", Name);
    Rep.add(std::string("service.encode_ns.") + Name, median(Enc), "ns");
    Rep.add(std::string("service.decode_ns.") + Name, median(Dec), "ns");
  }
}

/// Submits \p J through handle() and polls it to its Result at the
/// client's cadence. Returns the Result; handle() times go to \p SubmitUs
/// and \p PollUs when given.
Frame handleJob(ServiceFrontEnd &FE, const JobInput &J, uint64_t Token,
                Rng &Jitter, std::vector<double> *SubmitUs = nullptr,
                std::vector<double> *PollUs = nullptr) {
  const RetryPolicy Pol;
  Frame Req;
  Req.Type = FrameType::SubmitReq;
  Req.setTicket(JobTicket(J.Tenant, Token));
  Req.Source = J.Source;
  Req.Word = "main";
  Req.Engine = static_cast<uint8_t>(J.Engine);
  uint64_t T0 = nowNs();
  Frame Resp;
  {
    Span Sp("service.ServiceFrontEnd.handle", Token);
    Resp = FE.handle(Req);
  }
  if (SubmitUs)
    SubmitUs->push_back(us(nowNs() - T0));
  if (Resp.Type != FrameType::SubmitAck)
    return Resp;
  Req = Frame();
  Req.Type = FrameType::PollReq;
  Req.setTicket(JobTicket(J.Tenant, Token));
  for (;;) {
    T0 = nowNs();
    {
      Span Sp("service.ServiceFrontEnd.handle", Token);
      Resp = FE.handle(Req);
    }
    if (PollUs)
      PollUs->push_back(us(nowNs() - T0));
    if (Resp.Type != FrameType::Pending)
      return Resp;
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        Pol.PollIntervalNs / 2 + Jitter.below(Pol.PollIntervalNs / 2 + 1)));
  }
}

void serviceLayers(const Options &Opt, Report &Rep) {
  const std::vector<std::string> Tenants = [] {
    ServiceFrontEnd Probe;
    return balancedTenants(Probe, 2);
  }();
  const size_t FreshN = Opt.Smoke ? 4 : 32;
  TinyPool Pool = tinyPool(Opt.Seed + 17, 2 * FreshN, Tenants, false, Rep);
  ServiceFrontEnd FE;
  Rng Jitter(Opt.Seed ^ 0x5851f42d4c957f2dULL);
  uint64_t Token = 1;
  for (const JobInput &J : Pool.Pool) // warm the program cache
    checkResult(J, handleJob(FE, J, Token++, Jitter), Rep);

  std::vector<double> Cached, Fresh, Polls;
  const size_t Cycles = Opt.Smoke ? 1 : 4;
  for (size_t C = 0; C < Cycles; ++C)
    for (const JobInput &J : Pool.Pool)
      checkResult(J, handleJob(FE, J, Token++, Jitter, &Cached, &Polls), Rep);
  for (size_t I = 0; I < FreshN; ++I)
    checkResult(Pool.Fresh[I], handleJob(FE, Pool.Fresh[I], Token++, Jitter,
                                         &Fresh, &Polls),
                Rep);
  Rep.add("service.handle_us.submit_cached", median(Cached), "us");
  Rep.add("service.handle_us.submit_fresh", median(Fresh), "us");
  Rep.add("service.handle_us.poll", median(Polls), "us");

  // Resident growth per distinct source: the front end keeps every
  // compiled program and a finished job per (program, engine, tenant).
  const double Before = residentKb();
  for (size_t I = FreshN; I < 2 * FreshN; ++I)
    checkResult(Pool.Fresh[I], handleJob(FE, Pool.Fresh[I], Token++, Jitter),
                Rep);
  Rep.add("service.retained_kb_per_program",
          (residentKb() - Before) / FreshN, "KiB");

  // Round trips: a poll of a finished job, answered with its Result.
  const JobInput &Done = Pool.Pool[0];
  const JobTicket DoneT(Done.Tenant, 1);
  auto Rtt = [&](ServiceClient &Client, const char *SpanName) {
    Frame Req, Resp;
    Req.Type = FrameType::PollReq;
    Req.setTicket(DoneT);
    std::vector<double> Us;
    for (size_t I = 0; I < (Opt.Smoke ? 200u : 3000u); ++I) {
      const uint64_t T0 = nowNs();
      bool Ok;
      {
        Span Sp(SpanName);
        Ok = Client.call(Req, Resp);
      }
      Us.push_back(us(nowNs() - T0));
      if (!Ok || Resp.Type != FrameType::Result)
        Rep.wrong("round trip %zu got %s", I, frameTypeName(Resp.Type));
    }
    return median(Us);
  };
  {
    LocalHost Host(FE);
    ServiceClient Client([&Host] { return Host.connect(); });
    Rep.add("channel.local_rtt_us", Rtt(Client, "channel.local.call"), "us");
  }
  {
    ServiceServer Server(FE);
    if (!Server.port()) {
      Rep.wrong("cannot bind a loopback listener");
      Rep.add("channel.tcp_rtt_us", 0, "us");
    } else {
      const uint16_t Port = Server.port();
      ServiceClient Client([Port] { return connectTcp(Port); });
      Rep.add("channel.tcp_rtt_us", Rtt(Client, "channel.tcp.call"), "us");
    }
    Server.stop();
  }
  FE.shutdown();
}

void probeLayers(const Options &Opt, Report &Rep) {
  const ProbeOut P = nominalProbe(Opt.Seed + 23, Opt.Smoke ? 0.3 : 3, Rep);
  Rep.add("loadgen.late_p99_us", P.LateP99Us, "us");
  Rep.add("client.frames_per_job", P.FramesPerJob, "frames");
}

//===----------------------------------------------------------------------===//
// The layered replay and its ledger
//===----------------------------------------------------------------------===//

/// One replay step: per job, the fastest of the repetitions.
using StepTimes = std::vector<uint64_t>;

struct ReplayJob {
  const JobInput *In;
  forth::System *Sys;
  uint32_t Entry;
  std::shared_ptr<const prepare::PreparedCode> PC;
};

void keepMin(StepTimes &T, size_t J, uint64_t Ns) {
  T[J] = std::min(T[J], Ns);
}

/// Warms \p FE's program cache with every source of \p Jobs that the
/// workload would have seen before (the fresh ones stay unseen).
void warm(ServiceFrontEnd &FE, const std::vector<ReplayJob> &Jobs,
          uint64_t &Token, Rng &Jitter, Report &Rep) {
  std::set<std::string> Seen;
  for (const ReplayJob &J : Jobs)
    if (!J.In->Fresh && Seen.insert(J.In->Source).second)
      checkResult(*J.In, handleJob(FE, *J.In, Token++, Jitter), Rep);
}

void replayLayers(const Options &Opt, Report &Rep) {
  // The job list: the paper programs (paper-suite, long-jobs) or a draw
  // from the short-jobs pool with one never-seen source.
  const std::vector<std::string> Tenants = [] {
    ServiceFrontEnd Probe;
    return balancedTenants(Probe, 2);
  }();
  std::vector<JobInput> Inputs;
  Rng R(Opt.Seed * 0x9e3779b97f4a7c15ULL + 29);
  const bool Short = Opt.Workload == "short-jobs";
  if (Short) {
    TinyPool Pool = tinyPool(Opt.Seed, 1, Tenants, false, Rep);
    for (size_t I = 0; I < (Opt.Smoke ? 16u : 128u); ++I)
      Inputs.push_back(Pool.Pool[R.below(Pool.Pool.size())]);
    Inputs.push_back(Pool.Fresh[0]);
  } else {
    const std::vector<JobInput> Round = longJobRound(Tenants, false, Rep);
    const size_t PerProg = serviceEngines().size();
    for (size_t P = 0; P < Round.size() / PerProg; ++P)
      Inputs.push_back(Round[P * PerProg + R.below(PerProg)]);
  }
  const size_t N = Inputs.size();
  std::map<std::string, std::unique_ptr<forth::System>> Systems;
  prepare::PrepareCache Cache;
  std::vector<ReplayJob> Jobs;
  for (const JobInput &In : Inputs) {
    auto &Sys = Systems[In.Source];
    if (!Sys)
      Sys = forth::loadOrDie(In.Source);
    Jobs.push_back({&In, Sys.get(), Sys->entryOf("main"),
                    Cache.getOrPrepare(Sys->Prog, In.Engine)});
  }

  const size_t Reps = Opt.Smoke ? 1 : 3;
  enum { Engine, Session, Ckpt, Sched, FrontEnd, Client, E2E, NumSteps };
  std::vector<StepTimes> T(NumSteps, StepTimes(N, UINT64_MAX));
  uint64_t Checkpoints = 0;
  uint64_t Token = 1;
  Rng Jitter(Opt.Seed ^ 0x6a09e667f3bcc909ULL);
  const ServiceConfig Svc;
  vm::Vm Scratch(0);
  for (size_t Rp = 0; Rp < Reps; ++Rp) {
    // Fresh services each repetition, so a never-seen source stays unseen.
    // Every step of one job runs back to back, so a drifting host speed
    // moves all of them alike.
    sched::SchedConfig SC;
    SC.Workers = Svc.WorkersPerShard;
    SC.SliceSteps = Svc.SliceSteps;
    SC.CheckpointEverySlices = Svc.CheckpointEverySlices;
    SC.Policy = Svc.Policy;
    SC.Cache = &Cache;
    sched::SessionScheduler Sch(SC);
    const sched::TenantId Ten = Sch.addTenant("replay");
    // One finished job per (program, engine), as the front end's free
    // lists hold after warm-up; a fresh program's job is made untimed here,
    // since the front end's step pays for it.
    std::map<std::pair<std::string, uint8_t>, sched::Job *> Idle;
    auto Scheduled = [&](const ReplayJob &RJ) {
      sched::JobSpec Spec;
      Spec.Entry = RJ.Entry;
      auto &Slot = Idle[{RJ.In->Source, static_cast<uint8_t>(RJ.In->Engine)}];
      if (Slot)
        Sch.recycle(Slot, RJ.Sys->Machine, Spec);
      else
        Slot = Sch.createJob(Ten, RJ.Sys->Prog, RJ.In->Engine,
                             RJ.Sys->Machine, Spec);
      if (Sch.submit(Slot) != sched::SubmitResult::Admitted)
        Rep.wrong("replay: the scheduler refused a job");
      Sch.wait(Slot);
      return Slot;
    };
    for (const ReplayJob &RJ : Jobs)
      Scheduled(RJ);
    ServiceFrontEnd FeHandle(Svc), FeClient(Svc), FeTraced(Svc);
    for (ServiceFrontEnd *FE : {&FeHandle, &FeClient, &FeTraced})
      warm(*FE, Jobs, Token, Jitter, Rep);
    LocalHost HostClient(FeClient), HostTraced(FeTraced);
    {
      ServiceClient ClClient([&HostClient] { return HostClient.connect(); });
      ServiceClient ClTraced([&HostTraced] { return HostTraced.connect(); });
      for (size_t J = 0; J < N; ++J) {
        const ReplayJob &RJ = Jobs[J];
        const JobInput &In = *RJ.In;
        uint64_t T0 = nowNs();
        // 1. engine one-shot
        Scratch = RJ.Sys->Machine;
        {
          vm::ExecContext Ctx(RJ.Sys->Prog, Scratch);
          engine::RunOptions O;
          O.Entry = RJ.Entry;
          O.Prepared = RJ.PC.get();
          T0 = nowNs();
          Span Sp("engine.runEngine", J + 1);
          engine::runEngine(In.Engine, RJ.Sys->Prog, Ctx, O);
        }
        keepMin(T[Engine], J, nowNs() - T0);
        if (Scratch.Out != In.Expected)
          Rep.wrong("replay: %s one-shot printed \"%s\"", In.Label,
                    Scratch.Out.c_str());
        // 2-3. a session without checkpoints, then at the service cadence
        for (int Step : {Session, Ckpt}) {
          Scratch = RJ.Sys->Machine;
          session::SessionPolicy Pol;
          Pol.SliceSteps = Svc.SliceSteps;
          if (Step == Ckpt)
            Pol.CheckpointEverySlices = Svc.CheckpointEverySlices;
          session::VmSession Sess(RJ.PC, Scratch, Pol);
          session::SessionResult Res;
          T0 = nowNs();
          {
            Span Sp("session.VmSession.run", J + 1);
            Res = Sess.run(RJ.Entry);
          }
          keepMin(T[Step], J, nowNs() - T0);
          if (Res.Outcome.Steps != In.Ref.Steps ||
              Res.Slices != In.Ref.Slices || Scratch.Out != In.Expected)
            Rep.wrong("replay: %s session differs from its reference",
                      In.Label);
          if (Rp == 0 && Step == Ckpt)
            Checkpoints += Sess.counters().Checkpoints;
        }
        // 4. one shard's scheduler as the service builds it
        sched::Job *Job;
        T0 = nowNs();
        {
          Span Sp("sched.SessionScheduler.submit+wait", J + 1);
          Job = Scheduled(RJ);
        }
        keepMin(T[Sched], J, nowNs() - T0);
        if (Job->result().Outcome.Steps != In.Ref.Steps ||
            Job->machine().Out != In.Expected)
          Rep.wrong("replay: %s scheduled differs from its reference",
                    In.Label);
        // 5. the front end's handle()
        T0 = nowNs();
        const Frame F = handleJob(FeHandle, In, Token++, Jitter);
        keepMin(T[FrontEnd], J, nowNs() - T0);
        checkResult(In, F, Rep);
        // 6. a client over LocalChannel, and the traced end-to-end pass;
        // which goes first alternates, so neither gains from the other.
        const int Order[2][2] = {{Client, E2E}, {E2E, Client}};
        for (int Step : Order[(Rp + J) % 2]) {
          ServiceClient &Cl = Step == Client ? ClClient : ClTraced;
          const JobTicket Tk(In.Tenant, Token++);
          Frame R;
          T0 = nowNs();
          {
            Span Sp(Step == E2E ? "job" : "replay.client", Tk.Token);
            if (!Cl.submit(Tk, In.Source, "main",
                           static_cast<uint8_t>(In.Engine), R) ||
                !Cl.awaitResult(Tk, R))
              Rep.wrong("replay: %s did not complete over the client",
                        In.Label);
          }
          keepMin(T[Step], J, nowNs() - T0);
          checkResult(In, R, Rep);
        }
      }
    }
    for (ServiceFrontEnd *FE : {&FeHandle, &FeClient, &FeTraced})
      FE->shutdown();
    Sch.shutdown();
  }

  std::vector<double> Total(NumSteps, 0);
  for (int S = 0; S < NumSteps; ++S)
    for (uint64_t Ns : T[S])
      Total[S] += static_cast<double>(Ns);
  auto PerJobUs = [&](double Ns) { return Ns / N / 1e3; };
  const double Deltas[] = {Total[Engine], Total[Session] - Total[Engine],
                           Total[Ckpt] - Total[Session],
                           Total[Sched] - Total[Ckpt],
                           Total[FrontEnd] - Total[Sched],
                           Total[Client] - Total[FrontEnd]};
  const char *Names[] = {"engine",    "session", "snapshot",
                         "sched",     "service", "client+channel"};
  double Sum = 0;
  std::fprintf(stderr, "ledger (%s, %zu jobs, us per job):",
               Short ? "short jobs" : "paper programs", N);
  for (size_t I = 0; I < 6; ++I) {
    Sum += Deltas[I];
    std::fprintf(stderr, " %s %.1f", Names[I], PerJobUs(Deltas[I]));
  }
  const double Measured = Total[E2E];
  const double Err = std::abs(Sum - Measured) / Measured;
  std::fprintf(stderr, " = %.1f; traced end to end %.1f (%.1f%% apart, "
               "tolerance %.0f%%)\n",
               PerJobUs(Sum), PerJobUs(Measured), Err * 100,
               LedgerTolerance * 100);
  if (Err > LedgerTolerance)
    Rep.wrong("ledger: layer deltas sum to %.1f us per job, end to end "
              "measured %.1f us",
              PerJobUs(Sum), PerJobUs(Measured));
  Rep.add("session.checkpoints_per_job", static_cast<double>(Checkpoints) / N,
          "count");
  Rep.add("sched.added_us_per_job", PerJobUs(Deltas[3]), "us");
  Rep.add("service.added_us_per_job", PerJobUs(Deltas[4]), "us");
  Rep.add("ledger.sum_us_per_job", PerJobUs(Sum), "us");
  Rep.add("ledger.e2e_us_per_job", PerJobUs(Measured), "us");
}

} // namespace

void runLayerSuite(const Options &Opt, Report &Rep) {
  // The host's speed as the layers below meet it; paper-suite's end-to-end
  // times are scaled by the same gauge.
  std::vector<double> Gauge;
  for (int I = 0; I < 15; ++I)
    Gauge.push_back(gaugeNs() / 1e6);
  Rep.add("host.gauge_ms", median(Gauge), "ms");
  paperLayers(Opt, Rep);
  frameLayers(Opt, Rep);
  serviceLayers(Opt, Rep);
  probeLayers(Opt, Rep);
  replayLayers(Opt, Rep);
}

} // namespace pb
