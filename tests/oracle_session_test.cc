// Oracle-session correctness and reuse tests (src/oracle/).
//
// The invariant: sessions are a pure performance layer. For every
// semantics and every query, the session-backed answer equals the
// definitional core/brute_force reference, and the *semantic* oracle
// structure (the counting algorithm's Σ₂ᵖ call count) stays within the
// paper's bound — memoization only removes solver invocations.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "core/brute_force.h"
#include "core/oracle_stats.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "minimal/minimal_models.h"
#include "minimal/pqz.h"
#include "oracle/sat_session.h"
#include "semantics/ccwa.h"
#include "semantics/counting_inference.h"
#include "semantics/gcwa.h"
#include "semantics/semantics.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace dd {
namespace {

using testing::BruteForceReference;
using testing::BruteReference;
using testing::ModelSet;
using testing::RandomFormula;

std::vector<SemanticsKind> AllKinds() {
  return {SemanticsKind::kCwa,  SemanticsKind::kGcwa, SemanticsKind::kEgcwa,
          SemanticsKind::kCcwa, SemanticsKind::kEcwa, SemanticsKind::kDdr,
          SemanticsKind::kPws,  SemanticsKind::kPerf, SemanticsKind::kIcwa,
          SemanticsKind::kDsm,  SemanticsKind::kPdsm};
}

// Databases each kind is defined on: DDR/PWS need deductive inputs; the
// positive family works for all kinds, the stratified one for the DNDB
// semantics.
bool KindHandles(SemanticsKind k, bool has_negation) {
  if (!has_negation) return true;
  switch (k) {
    case SemanticsKind::kPerf:
    case SemanticsKind::kIcwa:
    case SemanticsKind::kDsm:
    case SemanticsKind::kPdsm:
      return true;
    default:
      return false;
  }
}

// Session answers == brute-force answers for every semantics on random
// DDBs: model existence, literals, random formulas and model sets.
TEST(OracleSessionTest, AllSemanticsAgreeWithBruteForce) {
  Rng fr(0x5E55101);
  for (uint64_t seed : {11u, 22u, 33u}) {
    for (bool stratified : {false, true}) {
      const int n = stratified ? 7 : 8;
      Database db =
          stratified ? RandomStratifiedDdb(n, 2 * n, 3, 0.4, seed)
                     : RandomPositiveDdb(n, 2 * n, seed);
      for (SemanticsKind k : AllKinds()) {
        if (!KindHandles(k, stratified)) continue;
        auto sem = MakeSemantics(k, db);
        const BruteReference ref = BruteForceReference(k, db);
        SCOPED_TRACE(sem->name() + (stratified ? " strat" : " pos") +
                     " seed=" + std::to_string(seed));

        auto hm = sem->HasModel();
        ASSERT_TRUE(hm.ok()) << hm.status().ToString();
        EXPECT_EQ(*hm, ref.HasModel());

        for (Var v = 0; v < db.num_vars(); v += 3) {
          for (Lit l : {Lit::Pos(v), Lit::Neg(v)}) {
            auto got = sem->InfersLiteral(l);
            ASSERT_TRUE(got.ok()) << "lit " << v << ": "
                                  << got.status().ToString();
            EXPECT_EQ(*got, ref.Infers(FormulaNode::MakeLit(l)))
                << "lit " << v;
          }
        }

        for (int q = 0; q < 3; ++q) {
          Formula f = RandomFormula(&fr, db.num_vars(), 2);
          auto got = sem->InfersFormula(f);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_EQ(*got, ref.Infers(f)) << "formula " << q;
        }

        const int64_t cap = 200;
        auto ms = sem->Models(cap);
        if (static_cast<int64_t>(ref.models.size()) <= cap) {
          ASSERT_TRUE(ms.ok()) << ms.status().ToString();
          EXPECT_EQ(ModelSet(*ms), ModelSet(ref.models));
        } else if (ms.ok()) {
          // Over the cap a semantics may truncate instead of failing; every
          // model it does return must still be an intended one.
          EXPECT_LE(static_cast<int64_t>(ms->size()), cap);
          const auto expected = ModelSet(ref.models);
          for (const Interpretation& m : *ms) {
            EXPECT_TRUE(expected.count(m) > 0);
          }
        }
      }
    }
  }
}

// The P-atoms true in some <P;Z>-minimal model: the f* the counting
// algorithm binary-searches for.
int BruteFreeCount(const Database& db, const Partition& pqz) {
  Interpretation free(db.num_vars());
  for (const Interpretation& m : brute::PqzMinimalModels(db, pqz)) {
    for (Var v : m.TrueAtoms()) {
      if (pqz.p.Contains(v)) free.Insert(v);
    }
  }
  return free.TrueCount();
}

// The paper-level oracle structure: the GCWA counting algorithm stays
// within the ceil(lg(|P|+1))+1 bound, and its verdict and free-atom count
// match brute force.
TEST(OracleSessionTest, GcwaCountingOracleCallsWithinBound) {
  for (int n : {4, 8, 16}) {
    for (uint64_t seed : {3u, 7u}) {
      Database db = RandomPositiveDdb(n, 2 * n, seed);
      GcwaSemantics gcwa(db);
      const Formula f = FormulaNode::MakeAtom(0);
      auto r = gcwa.InfersFormulaViaCounting(f);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r->inferred, brute::Infers(brute::GcwaModels(db), f));
      EXPECT_EQ(r->free_count,
                BruteFreeCount(db, Partition::MinimizeAll(db.num_vars())));
      int bound = static_cast<int>(std::ceil(std::log2(n + 1))) + 1;
      EXPECT_LE(r->oracle_calls, bound);
    }
  }
}

// Context retraction: a group's clauses constrain only solves that assume
// its activation, and die with the group.
TEST(OracleSessionTest, ContextClausesAreScopedAndRetracted) {
  Database db = testing::Db("a | b.");
  oracle::SatSession session(db);
  EXPECT_EQ(session.Solve(), sat::SolveResult::kSat);
  {
    oracle::SatSession::Context ctx(&session);
    ctx.AddUnit(Lit::Neg(0));
    ctx.AddUnit(Lit::Neg(1));
    EXPECT_EQ(ctx.Solve(), sat::SolveResult::kUnsat);
    // The base problem is untouched while the group is live but unassumed.
    EXPECT_EQ(session.Solve(), sat::SolveResult::kSat);
  }
  EXPECT_EQ(session.Solve(), sat::SolveResult::kSat);
  EXPECT_EQ(session.stats().contexts_opened, 1);
  EXPECT_EQ(session.stats().contexts_retired, 1);
}

// Keep(): a kept group persists, but still only binds solves that assume
// its activation literal.
TEST(OracleSessionTest, KeptContextPersistsUnderItsActivation) {
  Database db = testing::Db("a | b.");
  oracle::SatSession session(db);
  Lit act;
  {
    oracle::SatSession::Context ctx(&session);
    ctx.AddClause({Lit::Neg(0)});
    ctx.AddClause({Lit::Neg(1)});
    ctx.Keep();
    act = ctx.activation();
    EXPECT_EQ(ctx.Solve(), sat::SolveResult::kUnsat);
  }
  // After destruction with Keep(): unconstrained solves are SAT, solves
  // assuming the activation still see the group.
  EXPECT_EQ(session.Solve(), sat::SolveResult::kSat);
  EXPECT_EQ(session.Solve({act}), sat::SolveResult::kUnsat);
}

// Memoized minimality: the second identical IsMinimal answers from the
// cache with zero additional solver calls.
TEST(OracleSessionTest, MinimalityVerdictsAreMemoized) {
  Database db = RandomPositiveDdb(8, 16, 5);
  MinimalEngine engine(db);
  Partition all = Partition::MinimizeAll(db.num_vars());
  std::optional<Interpretation> m = engine.FindModel();
  ASSERT_TRUE(m.has_value());
  Interpretation mm = engine.Minimize(*m, all);

  bool first = engine.IsMinimal(mm, all);
  int64_t sat_after_first = engine.stats().sat_calls;
  int64_t hits_after_first = engine.session_stats().cache_hits;
  bool second = engine.IsMinimal(mm, all);
  EXPECT_EQ(first, second);
  EXPECT_TRUE(first);
  EXPECT_EQ(engine.stats().sat_calls, sat_after_first)
      << "memoized verdict must not call the solver";
  EXPECT_GT(engine.session_stats().cache_hits, hits_after_first);
}

// Memoized enumeration: the second full enumeration replays the stream's
// recorded projections without any solver call.
TEST(OracleSessionTest, EnumerationReplaysWithoutSolverCalls) {
  Database db = RandomPositiveDdb(8, 16, 9);
  MinimalEngine engine(db);
  Partition all = Partition::MinimizeAll(db.num_vars());

  std::vector<Interpretation> first;
  engine.EnumerateMinimalProjections(all, -1, [&](const Interpretation& m) {
    first.push_back(m);
    return true;
  });
  int64_t sat_after_first = engine.stats().sat_calls;

  std::vector<Interpretation> second;
  engine.EnumerateMinimalProjections(all, -1, [&](const Interpretation& m) {
    second.push_back(m);
    return true;
  });
  EXPECT_EQ(first, second) << "replay must preserve discovery order";
  EXPECT_EQ(engine.stats().sat_calls, sat_after_first)
      << "replay of an exhausted stream must be SAT-free";
  EXPECT_GT(engine.session_stats().projections_replayed, 0);
}

// CCWA (partitioned counting) under a nontrivial <P;Q;Z> split: verdict
// and free-atom count match brute force within the same call bound.
TEST(OracleSessionTest, CcwaCountingAgreesWithBruteForce) {
  const int n = 8;
  Database db = RandomPositiveDdb(n, 2 * n, 17);
  Partition p;
  p.p = Interpretation(n);
  p.q = Interpretation(n);
  p.z = Interpretation(n);
  for (Var v = 0; v < n; ++v) {
    if (v < n / 2) {
      p.p.Insert(v);
    } else if (v < 3 * n / 4) {
      p.q.Insert(v);
    } else {
      p.z.Insert(v);
    }
  }
  CcwaSemantics ccwa(db, p);
  const Formula f = FormulaNode::MakeAtom(0);
  auto r = ccwa.InfersFormulaViaCounting(f);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->inferred, brute::Infers(brute::CcwaModels(db, p), f));
  EXPECT_EQ(r->free_count, BruteFreeCount(db, p));
  int bound = static_cast<int>(std::ceil(std::log2(n / 2 + 1))) + 1;
  EXPECT_LE(r->oracle_calls, bound);
}

// Session bookkeeping invariants: one base load per engine, opened >=
// retired.
TEST(OracleSessionTest, SessionStatsInvariant) {
  Database db = RandomPositiveDdb(6, 12, 2);
  MinimalEngine engine(db);
  Partition all = Partition::MinimizeAll(db.num_vars());
  (void)engine.FreeAtoms(all);
  oracle::SessionStats s = engine.session_stats();
  EXPECT_EQ(s.base_loads, 1);
  EXPECT_GE(s.contexts_opened, s.contexts_retired);
  EXPECT_GT(s.solves, 0);
}

// The stats formatter shows the semantic counters next to the reuse
// counters, and renders all-zero session counters as "session: off".
TEST(OracleSessionTest, FormatStatsRendersSessionCounters) {
  MinimalStats m;
  m.sat_calls = 12;
  m.minimizations = 3;
  m.cegar_iterations = 4;
  m.models_enumerated = 5;
  oracle::SessionStats off;
  EXPECT_EQ(FormatStats(m, off),
            "SAT calls=12, minimizations=3, CEGAR=4, models=5 | "
            "session: off");
  oracle::SessionStats on;
  on.base_loads = 1;
  on.solves = 9;
  on.contexts_opened = 4;
  on.contexts_retired = 3;
  on.cache_hits = 7;
  on.cache_misses = 2;
  on.projections_replayed = 6;
  EXPECT_EQ(FormatStats(m, on),
            "SAT calls=12, minimizations=3, CEGAR=4, models=5 | "
            "session: loads=1, solves=9, ctx=4/3, cache=7/2, replayed=6");
}

}  // namespace
}  // namespace dd
