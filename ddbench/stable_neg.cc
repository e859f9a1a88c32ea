// stable_neg: the stable-model family (DSM / PDSM), whose engines pay a
// reduct + minimality check per candidate model.
//
// Three streams, interleaved, each instance in a fresh Reasoner:
//   * DSM HasModel on the Section 5.2 Σ₂ᵖ gadget
//     (ReduceSigma2ToDsmExistence); reference: the ∃∀ QBF verdict;
//   * DSM `not w` on Theorem 3.1 Π₂ᵖ gadgets (positive database, so the
//     stable models are the minimal models); reference: the ∀∃ verdict;
//   * PDSM and DSM literal inference on small random DNDBs with negation;
//     reference: core/brute_force's stable and partial stable models.
#include <optional>
#include <string>
#include <vector>

#include "core/brute_force.h"
#include "gen/generators.h"
#include "oneshot.h"
#include "qbf/qbf_solver.h"
#include "qbf/reductions.h"
#include "util/rng.h"

namespace ddbench {

namespace {

// Gadget shapes (|X| = |Y|, clauses) at the ratio where about half of
// the QBFs are valid.
constexpr int kSigmaBlock = 6;
constexpr int kSigmaClauses = 9;
constexpr int kPiBlock = 5;
constexpr int kPiClauses = 8;
constexpr int kDbVars = 7;  ///< atoms of the random DNDBs (brute force is 3^n)
constexpr int kDbClauses = 10;
constexpr int kDbLiterals = 3;  ///< literals per DNDB, each under PDSM and DSM
constexpr int kGadgets = 4096;  ///< gadgets per family per seed, cycled
constexpr int kDndbs = 4096;    ///< DNDBs per seed, cycled

struct Instance {
  dd::Database db;
  std::vector<std::string> literals;  ///< queried literals
  dd::QbfForallExistsCnf forall_exists;
  dd::QbfExistsForallDnf exists_forall;
};

struct Pools {
  std::vector<Instance> sigma2;  ///< DSM existence gadgets
  std::vector<Instance> pi2;     ///< DSM `not w` gadgets
  std::vector<Instance> dndb;    ///< small DNDBs
};

Pools MakePools(uint64_t seed) {
  Pools p;
  p.sigma2.resize(kGadgets);
  p.pi2.resize(kGadgets);
  p.dndb.resize(kDndbs);
  for (int i = 0; i < kGadgets; ++i) {
    dd::Rng rng(dd::DeriveSeed(seed, static_cast<uint64_t>(i)));
    Instance& s = p.sigma2[i];
    s.exists_forall = dd::NegateToExistsForall(
        dd::RandomQbf(kSigmaBlock, kSigmaBlock, kSigmaClauses, 3, &rng));
    s.db = dd::ReduceSigma2ToDsmExistence(s.exists_forall).db;

    Instance& g = p.pi2[i];
    g.forall_exists = dd::RandomQbf(kPiBlock, kPiBlock, kPiClauses, 3, &rng);
    dd::ReducedInstance inst = dd::ReducePi2ToGcwaLiteral(g.forall_exists);
    g.literals = {"not " + inst.db.vocabulary().Name(inst.w)};
    g.db = std::move(inst.db);
    if (i >= kDndbs) continue;

    Instance& d = p.dndb[i];
    dd::DdbConfig c;
    c.num_vars = kDbVars;
    c.num_clauses = kDbClauses;
    c.max_head = 2;
    c.max_body = 2;
    c.negation_fraction = 0.35;
    d.db = dd::RandomDdb(c, &rng);
    for (int v : rng.SampleDistinct(d.db.num_vars(), kDbLiterals)) {
      std::string lit = rng.Chance(0.5) ? "not " : "";
      d.literals.push_back(lit + d.db.vocabulary().Name(v));
    }
  }
  return p;
}

enum Stream { kSigma2Exists, kPi2Literal, kDndbPdsm, kDndbDsm };

struct Seen {
  Stream stream;
  int index;
  int literal;  ///< DNDB streams: index into Instance::literals
  dd::Trilean verdict;
};

/// Brute-force reference verdicts of one DNDB's literals under DSM and
/// PDSM (vacuously true without models).
struct DndbRef {
  std::vector<bool> dsm, pdsm;
};

DndbRef BruteForce(const Instance& d) {
  const std::vector<dd::Interpretation> stable = dd::brute::StableModels(d.db);
  const std::vector<dd::PartialInterpretation> partial =
      dd::brute::PartialStableModels(d.db);
  DndbRef ref;
  for (const std::string& text : d.literals) {
    dd::Database db = d.db;  // ParseLiteral may intern; keep the pool intact
    dd::Result<dd::Lit> lit = dd::ParseLiteral(text, &db.vocabulary());
    bool dsm = lit.ok(), pdsm = lit.ok();
    for (const dd::Interpretation& m : stable) {
      if (lit.ok() && m.Contains(lit->var()) != lit->positive()) dsm = false;
    }
    for (const dd::PartialInterpretation& m : partial) {
      if (lit.ok() && m.ValueOf(*lit) != dd::TruthValue::kTrue) pdsm = false;
    }
    ref.dsm.push_back(dsm);
    ref.pdsm.push_back(pdsm);
  }
  return ref;
}

}  // namespace

Outcome RunStableNeg(const RunConfig& cfg) {
  Outcome out;
  Pools pools;
  TraceSlot slot;
  TraceSlot* traced = cfg.traced ? &slot : nullptr;
  for (int rep = 0; rep < cfg.setup_reps; ++rep) {
    const double t0 = NowMs();
    {
      dd::obs::ScopedSpan span(traced != nullptr ? slot.get() : nullptr,
                               "bench.gen", "bench");
      pools = MakePools(cfg.seed);
    }
    out.setup_s.push_back((NowMs() - t0) / 1e3);
    if (traced != nullptr) slot.FlushInto(&out.ledger);
  }

  std::vector<Seen> seen;
  const StopRule stop(cfg);
  const double start = NowMs();
  for (int64_t i = 0; !stop.Done(out.attempted); ++i) {
    // One round: an existence gadget, a Π₂ gadget, and one DNDB whose
    // literals are asked under PDSM and DSM.
    const int g = static_cast<int>(i % kGadgets);
    {
      OneShot shot(pools.sigma2[g].db, traced, &out);
      seen.push_back(
          {kSigma2Exists, g, 0, shot.HasModel(dd::SemanticsKind::kDsm)});
    }
    if (stop.Done(out.attempted)) break;
    {
      OneShot shot(pools.pi2[g].db, traced, &out);
      seen.push_back({kPi2Literal, g, 0,
                      shot.Literal(dd::SemanticsKind::kDsm,
                                   pools.pi2[g].literals[0])});
    }
    const int d = static_cast<int>(i % kDndbs);
    OneShot shot(pools.dndb[d].db, traced, &out);
    for (int k = 0; k < kDbLiterals; ++k) {
      for (Stream st : {kDndbPdsm, kDndbDsm}) {
        if (stop.Done(out.attempted)) break;
        const dd::SemanticsKind kind = st == kDndbPdsm
                                           ? dd::SemanticsKind::kPdsm
                                           : dd::SemanticsKind::kDsm;
        seen.push_back(
            {st, d, k, shot.Literal(kind, pools.dndb[d].literals[k])});
      }
    }
  }
  out.timed_s = (NowMs() - start - out.paused_ms) / 1e3;

  // Audit: every reference computed once per instance.
  std::vector<int> sigma2_valid(kGadgets, -1), pi2_valid(kGadgets, -1);
  std::vector<std::optional<DndbRef>> dndb_ref(kDndbs);
  for (const Seen& s : seen) {
    if (s.verdict == dd::Trilean::kUnknown) continue;
    bool expect_yes = false;
    switch (s.stream) {
      case kSigma2Exists: {
        int& v = sigma2_valid[s.index];
        if (v < 0) {
          dd::Result<bool> r =
              dd::SolveExistsForall(pools.sigma2[s.index].exists_forall);
          v = r.ok() ? (*r ? 1 : 0) : 2;
        }
        if (v == 2) ++out.wrong;
        expect_yes = v == 1;
        break;
      }
      case kPi2Literal: {
        int& v = pi2_valid[s.index];
        if (v < 0) {
          dd::Result<bool> r =
              dd::SolveForallExists(pools.pi2[s.index].forall_exists);
          v = r.ok() ? (*r ? 1 : 0) : 2;
        }
        if (v == 2) ++out.wrong;
        expect_yes = v == 1;
        break;
      }
      case kDndbPdsm:
      case kDndbDsm: {
        std::optional<DndbRef>& ref = dndb_ref[s.index];
        if (!ref) ref = BruteForce(pools.dndb[s.index]);
        expect_yes = s.stream == kDndbPdsm ? ref->pdsm[s.literal]
                                           : ref->dsm[s.literal];
        break;
      }
    }
    ++out.audited;
    if ((s.verdict == dd::Trilean::kYes) != expect_yes) ++out.wrong;
  }
  return out;
}

}  // namespace ddbench
