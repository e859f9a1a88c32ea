// pi2_infer: Theorem 3.1's Π₂ᵖ → GCWA-literal gadget under six
// minimal-model semantics.
//
// A seeded stream of random ∀X∃Y 3-CNF 2-QBFs is reduced by
// ReducePi2ToGcwaLiteral; each gadget is loaded into a fresh Reasoner and
// asked `not w` under GCWA, EGCWA, ECWA, CCWA, ICWA and PERF. The gadget
// is not head-cycle-free, so dispatch falls through to the generic
// engines and the time sits in sat/oracle/minimal. Reference: the QBF
// verdict (Φ valid <=> GCWA |= ¬w, and likewise for the other five on a
// positive database).
#include <string>
#include <vector>

#include "gen/generators.h"
#include "oneshot.h"
#include "qbf/qbf_solver.h"
#include "qbf/reductions.h"
#include "util/rng.h"

namespace ddbench {

namespace {

constexpr int kBlock = 6;  ///< |X| = |Y|
constexpr int kClauses = 9;  ///< the ratio where about half are valid
constexpr int kPool = 4096;  ///< gadgets per seed, cycled

constexpr dd::SemanticsKind kKinds[] = {
    dd::SemanticsKind::kGcwa, dd::SemanticsKind::kEgcwa,
    dd::SemanticsKind::kEcwa, dd::SemanticsKind::kCcwa,
    dd::SemanticsKind::kIcwa, dd::SemanticsKind::kPerf};

struct Gadget {
  dd::QbfForallExistsCnf qbf;
  dd::ReducedInstance inst;
  std::string query;  ///< "not w"
};

std::vector<Gadget> MakePool(uint64_t seed) {
  std::vector<Gadget> pool(kPool);
  for (int i = 0; i < kPool; ++i) {
    dd::Rng rng(dd::DeriveSeed(seed, static_cast<uint64_t>(i)));
    pool[i].qbf = dd::RandomQbf(kBlock, kBlock, kClauses, 3, &rng);
    pool[i].inst = dd::ReducePi2ToGcwaLiteral(pool[i].qbf);
    pool[i].query =
        "not " + pool[i].inst.db.vocabulary().Name(pool[i].inst.w);
  }
  return pool;
}

struct Seen {
  int gadget;
  dd::Trilean verdict;
};

}  // namespace

Outcome RunPi2Infer(const RunConfig& cfg) {
  Outcome out;
  std::vector<Gadget> pool;
  TraceSlot slot;
  TraceSlot* traced = cfg.traced ? &slot : nullptr;
  for (int rep = 0; rep < cfg.setup_reps; ++rep) {
    const double t0 = NowMs();
    {
      dd::obs::ScopedSpan span(traced != nullptr ? slot.get() : nullptr,
                               "bench.gen", "bench");
      pool = MakePool(cfg.seed);
    }
    out.setup_s.push_back((NowMs() - t0) / 1e3);
    if (traced != nullptr) slot.FlushInto(&out.ledger);
  }

  std::vector<Seen> seen;
  const StopRule stop(cfg);
  const double start = NowMs();
  for (int64_t i = 0; !stop.Done(out.attempted); ++i) {
    const int g = static_cast<int>(i % kPool);
    OneShot shot(pool[g].inst.db, traced, &out);
    for (dd::SemanticsKind kind : kKinds) {
      if (stop.Done(out.attempted)) break;
      seen.push_back({g, shot.Literal(kind, pool[g].query)});
    }
  }
  out.timed_s = (NowMs() - start - out.paused_ms) / 1e3;

  // Audit: one QBF verdict per gadget seen.
  std::vector<int> valid(kPool, -1);
  for (const Seen& s : seen) {
    if (s.verdict == dd::Trilean::kUnknown) continue;
    if (valid[s.gadget] < 0) {
      dd::Result<bool> v = dd::SolveForallExists(pool[s.gadget].qbf);
      valid[s.gadget] = v.ok() ? (*v ? 1 : 0) : 2;
    }
    ++out.audited;
    const bool expect_yes = valid[s.gadget] == 1;
    if (valid[s.gadget] == 2 ||
        (s.verdict == dd::Trilean::kYes) != expect_yes) {
      ++out.wrong;
    }
  }
  return out;
}

}  // namespace ddbench
