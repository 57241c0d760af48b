//===-- perfbench/src/Gen.cpp - Workload inputs and expectations ----------===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//

#include "Gen.h"

#include "forth/Forth.h"
#include "prepare/PrepareCache.h"
#include "session/VmSession.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <memory>

using namespace sc;

namespace pb {

const std::vector<engine::EngineId> &paperEngines() {
  using engine::EngineId;
  static const std::vector<EngineId> E = {
      EngineId::Switch,      EngineId::Threaded,     EngineId::CallThreaded,
      EngineId::ThreadedTos, EngineId::Dynamic3,     EngineId::StaticGreedy,
      EngineId::StaticOptimal};
  return E;
}

const std::vector<engine::EngineId> &serviceEngines() {
  static const std::vector<engine::EngineId> E = [] {
    std::vector<engine::EngineId> Out;
    for (engine::EngineId Id : paperEngines())
      if (engine::engineInfo(Id).Caps.Reentrant)
        Out.push_back(Id);
    return Out;
  }();
  return E;
}

std::vector<PaperProgram> paperPrograms(bool WrongExpected) {
  size_t N = 0;
  const workloads::WorkloadInfo *W = workloads::allWorkloads(N);
  std::vector<PaperProgram> Out;
  for (size_t I = 0; I < N; ++I)
    Out.push_back({W[I].Name, W[I].Source, W[I].Expected});
  if (WrongExpected && !Out.empty())
    Out[0].Expected = "0 \n";
  return Out;
}

namespace {
std::string num(uint64_t V) { return std::to_string(V); }
} // namespace

TinyProgram makeTiny(Rng &R, unsigned Family, unsigned Level, uint64_t Salt) {
  // Guest steps per loop iteration of each family, and the step sizes of
  // the levels; every job stays below the service's 4096-step slice.
  static constexpr uint64_t StepsPerIter[TinyFamilies] = {3, 9, 5, 11, 64, 7};
  static constexpr uint64_t LevelSteps[TinyLevels] = {60,   200,  500,
                                                      1000, 2000, 3400};
  const uint64_t Base = LevelSteps[Level] / StepsPerIter[Family];
  const uint64_t N = std::max<uint64_t>(2, Base * (90 + R.below(21)) / 100);
  const std::string Tail = " " + num(Salt) + " drop . ;";
  TinyProgram P;
  switch (Family) {
  case 0: // sum of i for i < N
    P.Family = "sum";
    P.Source = ": main 0 " + num(N) + " 0 do i + loop" + Tail;
    P.Expected = num(N * (N - 1) / 2);
    break;
  case 1: // sum of i*i for i < N, through a variable
    P.Family = "squares";
    P.Source = "variable acc : main 0 acc ! " + num(N) +
               " 0 do i i * acc @ + acc ! loop acc @" + Tail;
    P.Expected = num((N - 1) * N * (2 * N - 1) / 6);
    break;
  case 2: // sum of i mod 7 for i < N
    P.Family = "modsum";
    P.Source = ": main 0 " + num(N) + " 0 do i 7 mod + loop" + Tail;
    P.Expected = num(21 * (N / 7) + (N % 7) * (N % 7 - 1) / 2);
    break;
  case 3: // N + (N-1) + ... + 1, counting down with a while loop
    P.Family = "countdown";
    P.Source = ": main 0 " + num(N) +
               " begin dup 0 > while dup rot + swap 1 - repeat drop" + Tail;
    P.Expected = num(N * (N + 1) / 2);
    break;
  case 4: // N*20 increments in nested loops
    P.Family = "nested";
    P.Source = ": main 0 " + num(N) + " 0 do 20 0 do 1 + loop loop" + Tail;
    P.Expected = num(N * 20);
    break;
  default: { // sum of B*i + C for i < N
    const uint64_t B = 1 + R.below(100), C = R.below(101);
    P.Family = "affine";
    P.Source = ": main 0 " + num(N) + " 0 do i " + num(B) + " * " + num(C) +
               " + + loop" + Tail;
    P.Expected = num(B * (N * (N - 1) / 2) + C * N);
    break;
  }
  }
  P.Expected += " "; // `.` prints the number and one space
  return P;
}

bool sessionReference(const std::string &Source, engine::EngineId E,
                      uint64_t SliceSteps, Reference &Out) {
  auto Sys = std::make_unique<forth::System>();
  if (!Sys->load(Source))
    return false;
  const uint32_t Entry = Sys->entryOf("main");
  prepare::PrepareCache Cache;
  auto Run = [&](engine::EngineId Id, vm::Vm &Machine) {
    session::SessionPolicy Pol;
    Pol.SliceSteps = SliceSteps;
    session::VmSession S(Cache.getOrPrepare(Sys->Prog, Id), Machine, Pol);
    return S.run(Entry);
  };
  vm::Vm Machine = Sys->Machine;
  const session::SessionResult R = Run(E, Machine);
  Out.Stop = static_cast<uint8_t>(R.Stop);
  Out.Status = static_cast<uint8_t>(R.Outcome.Status);
  Out.Steps = R.Outcome.Steps;
  Out.Slices = R.Slices;
  Out.Output = Machine.Out;
  Out.RefSteps = R.Outcome.Steps;
  if (E != engine::referenceEngine()) {
    vm::Vm SwitchMachine = Sys->Machine;
    Out.RefSteps = Run(engine::referenceEngine(), SwitchMachine).Outcome.Steps;
  }
  return true;
}

} // namespace pb
