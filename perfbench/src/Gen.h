//===-- perfbench/src/Gen.h - Workload inputs and expectations -*- C++ -*-===//
//
// Part of the stackcache project: a reproduction of "Stack Caching for
// Interpreters" (M. A. Ertl, PLDI 1995).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seeded input generator. The program under test only ever receives
/// what this file produces — source text, an engine id, a tenant and a
/// token. What the output must be is known here alone: the paper programs'
/// checksum lines, and for the generated tiny programs a closed form (a
/// `do ... loop` sum of i is N(N-1)/2, and so on).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GEN_H
#define PERFBENCH_GEN_H

#include "dispatch/EngineRegistry.h"
#include "support/Rng.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/// The paper's engines (Ertl 1995): the four reference dispatch
/// techniques, the dynamic 3-state cache, and both static caches.
const std::vector<sc::engine::EngineId> &paperEngines();
/// The paper engines the service accepts (call threading is refused).
const std::vector<sc::engine::EngineId> &serviceEngines();

struct PaperProgram {
  const char *Name;
  const char *Source;
  std::string Expected;
};
/// compile, gray, prims2x, cross. \p WrongExpected corrupts the first.
std::vector<PaperProgram> paperPrograms(bool WrongExpected);

/// A generated program whose printed result has a closed form.
struct TinyProgram {
  std::string Source;
  std::string Expected;
  const char *Family;
};
/// Program families and the guest-step sizes tiny jobs are drawn at.
inline constexpr unsigned TinyFamilies = 6;
inline constexpr unsigned TinyLevels = 6;
/// Builds a program of family \p Family (< TinyFamilies) that retires
/// about the \p Level-th size of guest steps (60 to 3400, one slice),
/// its loop count jittered by up to 10% from \p R. \p Salt is folded
/// into the text as a literal, so distinct salts give distinct sources
/// (and distinct program-cache entries).
TinyProgram makeTiny(sc::Rng &R, unsigned Family, unsigned Level,
                     uint64_t Salt);

/// What a Result frame for one program/engine must say: a plain
/// VmSession run at the service's slice size (the sliced == one-shot
/// contract makes it the service's answer too).
struct Reference {
  uint8_t Stop = 0;
  uint8_t Status = 0;
  uint64_t Steps = 0;
  uint64_t Slices = 0;
  std::string Output;
  /// Guest steps the switch engine retires for the same program: the
  /// engine-neutral measure of the job's work.
  uint64_t RefSteps = 0;
};
/// Compiles \p Source and runs it under \p E (and under switch for
/// RefSteps). Returns false when the source does not compile.
bool sessionReference(const std::string &Source, sc::engine::EngineId E,
                      uint64_t SliceSteps, Reference &Out);

/// One job of a service workload: what is submitted, and what must come
/// back.
struct JobInput {
  std::string Source;
  std::string Expected;
  sc::engine::EngineId Engine = sc::engine::EngineId::Switch;
  std::string Tenant;
  Reference Ref;
  unsigned Shard = 0; ///< the shard the tenant hashes onto
  bool Fresh = false; ///< a source the front end has never seen
  const char *Label = ""; ///< program or family name
};

} // namespace pb

#endif // PERFBENCH_GEN_H
