//===-- perfbench/src/Workloads.h - The benchmark's workloads --*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads (paper-suite, long-jobs, short-jobs), the layer
/// suite of traced runs, and the pieces they share: the paper programs
/// prepared for every engine, and the closed/open-loop service client.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Bench.h"
#include "Gen.h"

#include "forth/Forth.h"
#include "prepare/PrepareCache.h"
#include "service/Client.h"
#include "service/Service.h"
#include "session/VmSession.h"
#include "tier/TierController.h"

#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pb {

//===----------------------------------------------------------------------===//
// paper-suite
//===----------------------------------------------------------------------===//

/// The four paper programs compiled, prepared for every paper engine, and
/// checked against their expected output; plus the adaptive tier path.
struct PaperSet {
  std::vector<PaperProgram> Progs;
  std::vector<std::unique_ptr<sc::forth::System>> Sys;
  std::vector<uint32_t> Entry;
  std::vector<uint64_t> RefSteps; ///< switch steps per program
  sc::prepare::PrepareCache Cache;
  /// [program][paper engine index]
  std::vector<std::vector<std::shared_ptr<const sc::prepare::PreparedCode>>>
      PC;
  uint64_t Insts = 0;              ///< instructions over all programs
  std::unique_ptr<sc::tier::TierController> Tier;
  std::vector<std::unique_ptr<sc::vm::Vm>> TierVm;
  std::vector<std::unique_ptr<sc::session::VmSession>> TierSess;
  sc::vm::Vm Scratch{0};
};

/// Number of run configurations per program: each paper engine, then the
/// adaptive tier path.
size_t paperConfigs();
const char *paperConfigName(size_t Config);

/// Builds \p S from scratch; outputs that disagree are reported to \p Rep.
void buildPaperSet(PaperSet &S, bool WrongExpected, Report &Rep);
/// Runs program \p P under configuration \p Config once, one-shot, and
/// checks its output. Returns the wall time of the run in ns.
uint64_t runPaper(PaperSet &S, size_t P, size_t Config, Report &Rep);

EndToEnd runPaperSuite(const Options &Opt, Report &Rep);

//===----------------------------------------------------------------------===//
// The service workloads
//===----------------------------------------------------------------------===//

/// Hosts serveChannel() threads for in-process connections.
class LocalHost {
public:
  explicit LocalHost(sc::service::ServiceFrontEnd &FE) : FE(FE) {}
  ~LocalHost();
  LocalHost(const LocalHost &) = delete;
  LocalHost &operator=(const LocalHost &) = delete;
  std::unique_ptr<sc::service::Channel> connect();

private:
  sc::service::ServiceFrontEnd &FE;
  std::mutex Mu;
  std::vector<std::thread> Threads; // Mu
};

/// Tenant names for \p FE, \p PerShard per shard: tenant I lives on shard
/// I % Shards, so a balanced draw over tenants balances the shards.
std::vector<std::string> balancedTenants(const sc::service::ServiceFrontEnd &FE,
                                         unsigned PerShard);

/// The long-jobs inputs: one round is every (paper program, service
/// engine) pair once, spread evenly over \p Tenants.
std::vector<JobInput> longJobRound(const std::vector<std::string> &Tenants,
                                   bool WrongExpected, Report &Rep);

/// The short-jobs inputs: a pool of cached programs and never-seen ones.
/// The pool holds every (family, size level) pair once, with engines and
/// tenants dealt evenly in a seeded order, so its total work does not
/// depend on the seed.
struct TinyPool {
  std::vector<JobInput> Pool;  ///< submitted again and again
  std::vector<JobInput> Fresh; ///< each submitted exactly once
};
TinyPool tinyPool(uint64_t Seed, size_t FreshCount,
                  const std::vector<std::string> &Tenants, bool WrongExpected,
                  Report &Rep);

/// Checks one Result frame against its job's reference and closed form.
bool checkResult(const JobInput &J, const sc::service::Frame &F, Report &Rep);

/// One job handed to the client: input index and when it is due (open
/// loop; closed-loop jobs are due when the window has room).
struct Dispatch {
  size_t Input = 0;
  uint64_t DueNs = 0;
  uint64_t Token = 0; ///< unique over the whole run
};

/// What the client saw.
struct ClientOut {
  std::vector<double> LatencyMs; ///< from due time (open) / submit (closed)
  std::vector<uint64_t> StartNs; ///< due (open) / submit (closed) time
  std::vector<double> LateUs;    ///< submit send time minus due time
  uint64_t Jobs = 0;     ///< submits attempted
  uint64_t Admitted = 0; ///< submits the service acknowledged
  uint64_t Failed = 0, Rejects = 0, Frames = 0;
  uint64_t RefSteps = 0;
};

/// Drives jobs through one ServiceClient, polling every outstanding job
/// at the client's own poll cadence. Open loop: submits each job of
/// \p Schedule at its due time. Closed loop: keeps \p Window jobs in
/// flight on each shard, taking the next for shard S from Pull(S) until
/// it returns false.
struct LoadSpec {
  const std::vector<JobInput> *Inputs = nullptr;
  const std::vector<Dispatch> *Schedule = nullptr;
  unsigned Shards = 1;
  unsigned Window = 0;
  std::function<bool(unsigned, Dispatch &)> Pull;
};
void runClient(sc::service::ServiceClient &Client, const LoadSpec &L,
               Report &Rep, ClientOut &Out);

EndToEnd runLongJobs(const Options &Opt, Report &Rep);
EndToEnd runShortJobs(const Options &Opt, Report &Rep);

/// Short-jobs settings the layer suite reuses.
inline constexpr double NominalRate = 600;///< jobs/s

/// A short-jobs phase at the nominal rate for \p Seconds on a fresh,
/// warmed service: how late (p99) the open-loop generator ran and the
/// frames its client sent per job.
struct ProbeOut {
  double LateP99Us;
  double FramesPerJob;
};
ProbeOut nominalProbe(uint64_t Seed, double Seconds, Report &Rep);

//===----------------------------------------------------------------------===//
// Traced runs
//===----------------------------------------------------------------------===//

/// Every per-layer metric (BENCHMARK.json's per_layer list) for the
/// workload \p Opt names, including the layered replay and its ledger
/// check.
void runLayerSuite(const Options &Opt, Report &Rep);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
