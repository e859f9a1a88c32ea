// Budget / deadline / fault-injection coverage (docs/ROBUSTNESS.md).
//
// The contract under test: "Unknown is allowed, wrong is not". A budgeted
// query either returns exactly the answer the unbudgeted query would, or a
// clean Unknown / budget-exhaustion Status — never a crash, never a
// flipped yes/no, and a deadline is honored within ~2x its value.
//
// The FaultSoak suite is injection-tolerant by design: every assertion
// accepts {reference answer, budget-exhaustion Status}, so the suite can
// be re-run with DD_FAULT_UNKNOWN_AT / DD_FAULT_EXHAUST_AFTER set in the
// environment (scripts/check.sh soak leg does this under ASan) and must
// still pass at every injection point.
#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "core/brute_force.h"
#include "core/reasoner.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "qbf/reductions.h"
#include "sat/fault.h"
#include "sat/solver.h"
#include "semantics/dsm.h"
#include "semantics/pdsm.h"
#include "semantics/perf.h"
#include "semantics/semantics.h"
#include "tests/test_util.h"
#include "util/budget.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace dd {
namespace {

using std::chrono::duration_cast;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

const SemanticsKind kAllKinds[] = {
    SemanticsKind::kCwa,  SemanticsKind::kGcwa, SemanticsKind::kEgcwa,
    SemanticsKind::kCcwa, SemanticsKind::kEcwa, SemanticsKind::kDdr,
    SemanticsKind::kPws,  SemanticsKind::kPerf, SemanticsKind::kIcwa,
    SemanticsKind::kDsm,  SemanticsKind::kPdsm,
};

// ---------------------------------------------------------------------------
// Budget unit tests

TEST(Budget, UnlimitedNeverExhausts) {
  auto b = Budget::Make(Budget::Limits{});
  EXPECT_FALSE(b->Exhausted());
  EXPECT_TRUE(b->ConsumeOracleCall());
  EXPECT_TRUE(b->ConsumeConflicts(1 << 20));
  EXPECT_FALSE(b->Exhausted());
  EXPECT_EQ(b->reason(), BudgetExhaustion::kNone);
  EXPECT_TRUE(b->ToStatus().ok());
  EXPECT_EQ(b->RemainingMs(), -1);
}

TEST(Budget, OracleCallBudgetLatchesResourceExhausted) {
  Budget::Limits lim;
  lim.oracle_call_budget = 2;
  auto b = Budget::Make(lim);
  EXPECT_TRUE(b->ConsumeOracleCall());
  EXPECT_TRUE(b->ConsumeOracleCall());
  EXPECT_FALSE(b->ConsumeOracleCall());
  EXPECT_TRUE(b->Exhausted());
  EXPECT_EQ(b->reason(), BudgetExhaustion::kOracleCalls);
  EXPECT_EQ(b->ToStatus().code(), StatusCode::kResourceExhausted);
  // Exhaustion cancels the shared token (sibling workers see it).
  EXPECT_TRUE(b->cancel_token()->cancelled());
}

TEST(Budget, ConflictBudgetLatchesResourceExhausted) {
  Budget::Limits lim;
  lim.conflict_budget = 10;
  auto b = Budget::Make(lim);
  EXPECT_TRUE(b->ConsumeConflicts(10));
  EXPECT_FALSE(b->ConsumeConflicts(1));
  EXPECT_EQ(b->reason(), BudgetExhaustion::kConflicts);
  EXPECT_EQ(b->ToStatus().code(), StatusCode::kResourceExhausted);
}

TEST(Budget, DeadlineLatchesDeadlineExceeded) {
  Budget::Limits lim;
  lim.deadline_ms = 0;  // already past on the first poll
  auto b = Budget::Make(lim);
  EXPECT_TRUE(b->Exhausted());
  EXPECT_EQ(b->reason(), BudgetExhaustion::kDeadline);
  EXPECT_EQ(b->ToStatus().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(b->RemainingMs(), 0);
}

// External cancellation is a *sibling/user* kill, not a deadline: it must
// surface as the dedicated kCancelled status (still a budget exhaustion for
// IsBudgetExhaustion / exit-code purposes) so callers can distinguish "you
// ran out of time" from "someone else answered first".
TEST(Budget, ExternalCancellationReportsCancelled) {
  auto token = std::make_shared<CancelToken>();
  auto b = Budget::Make(Budget::Limits{}, token);
  EXPECT_FALSE(b->Exhausted());
  token->Cancel();
  EXPECT_TRUE(b->Exhausted());
  EXPECT_EQ(b->reason(), BudgetExhaustion::kCancelled);
  EXPECT_EQ(b->ToStatus().code(), StatusCode::kCancelled);
  EXPECT_TRUE(b->ToStatus().IsBudgetExhaustion());
}

TEST(Budget, FirstExhaustionReasonWins) {
  Budget::Limits lim;
  lim.oracle_call_budget = 0;
  lim.conflict_budget = 0;
  auto b = Budget::Make(lim);
  EXPECT_FALSE(b->ConsumeOracleCall());
  EXPECT_FALSE(b->ConsumeConflicts(1));
  EXPECT_EQ(b->reason(), BudgetExhaustion::kOracleCalls);  // latched first
}

TEST(Budget, TrileanHelpers) {
  EXPECT_EQ(TrileanFromBool(true), Trilean::kYes);
  EXPECT_EQ(TrileanFromBool(false), Trilean::kNo);
  EXPECT_STREQ(TrileanName(Trilean::kUnknown), "unknown");
}

// ---------------------------------------------------------------------------
// Solver-level budget behavior

TEST(SolverBudget, OracleCallBudgetMakesSolveUnknown) {
  sat::Solver s;
  s.EnsureVars(2);
  s.AddClause({Lit::Pos(0), Lit::Pos(1)});
  Budget::Limits lim;
  lim.oracle_call_budget = 1;
  auto b = Budget::Make(lim);
  s.SetBudget(b);
  EXPECT_NE(s.Solve(), sat::SolveResult::kUnknown);
  EXPECT_EQ(s.Solve(), sat::SolveResult::kUnknown);  // budget gone
  EXPECT_TRUE(b->Exhausted());
  // Removing the budget restores normal operation.
  s.SetBudget(nullptr);
  EXPECT_NE(s.Solve(), sat::SolveResult::kUnknown);
}

TEST(SolverBudget, GlobalConflictBudgetCutsHardInstance) {
  // Phase-transition random 3SAT: plenty of conflicts available.
  Rng rng(123);
  sat::Solver s;
  const int n = 100;
  s.EnsureVars(n);
  for (int i = 0; i < static_cast<int>(4.2 * n); ++i) {
    std::vector<Lit> c;
    for (int j = 0; j < 3; ++j) {
      c.push_back(Lit::Make(static_cast<Var>(rng.Below(n)), rng.Chance(0.5)));
    }
    s.AddClause(c);
  }
  Budget::Limits lim;
  lim.conflict_budget = 5;
  auto b = Budget::Make(lim);
  s.SetBudget(b);
  EXPECT_EQ(s.Solve(), sat::SolveResult::kUnknown);
  EXPECT_EQ(b->reason(), BudgetExhaustion::kConflicts);
}

TEST(SolverBudget, FaultySolverForcesUnknownAtNthCall) {
  sat::FaultySolver s;
  s.EnsureVars(1);
  s.AddClause({Lit::Pos(0)});
  s.FailAt(2);
  EXPECT_EQ(s.Solve(), sat::SolveResult::kSat);
  EXPECT_EQ(s.Solve(), sat::SolveResult::kUnknown);
  EXPECT_EQ(s.Solve(), sat::SolveResult::kSat);
  s.ExhaustAfter(3);
  EXPECT_EQ(s.Solve(), sat::SolveResult::kUnknown);  // 4th local call
  EXPECT_EQ(s.local_solves(), 4);
}

TEST(SolverBudget, GlobalInjectorTripsAtConfiguredSolve) {
  sat::FaultPlan plan;
  plan.unknown_at = 2;
  sat::ScopedFaultPlan scoped(plan);
  sat::Solver s;
  s.EnsureVars(1);
  s.AddClause({Lit::Pos(0)});
  EXPECT_EQ(s.Solve(), sat::SolveResult::kSat);
  EXPECT_EQ(s.Solve(), sat::SolveResult::kUnknown);
  EXPECT_EQ(s.Solve(), sat::SolveResult::kSat);
}

// ---------------------------------------------------------------------------
// The 50 ms deadline pin, all 11 semantics.
//
// The instance is a pigeonhole embedding PHP(p, p-1): pigeon clauses are
// disjunctive facts p_i_0 | ... | p_i_{h-1}, hole exclusivity becomes
// integrity clauses :- p_i_j, p_k_j (i < k). The database is inconsistent,
// but *proving* that refutes PHP — exponential for resolution and hence
// for the CDCL core — so every oracle-backed query's first SAT call is
// guaranteed slow DETERMINISTICALLY. A random phase-transition instance
// would leave a lucky-model escape hatch (a satisfiable draw can hand a
// counterexample to the first Solve within the deadline); PHP has no
// models to get lucky with. The program is positive, hence trivially
// stratified for ICWA, and the relaxation-based shortcuts all bottom out
// in the same refutation.
//
// With use_ics=false (PERF rejects integrity clauses, paper footnote 3)
// hole collisions derive a witness atom `w` instead; `w` then holds in
// every minimal model iff PHP(p, p-1) is unsatisfiable, so Infers(w) is
// the same exponential refutation.
std::string PigeonholeText(int pigeons, bool use_ics = true) {
  const int holes = pigeons - 1;
  std::string out;
  for (int i = 0; i < pigeons; ++i) {
    for (int j = 0; j < holes; ++j) {
      out += StrFormat("%sp%d_%d", j == 0 ? "" : " | ", i, j);
    }
    out += ".\n";
  }
  for (int j = 0; j < holes; ++j) {
    for (int i = 0; i < pigeons; ++i) {
      for (int k = i + 1; k < pigeons; ++k) {
        out += StrFormat(use_ics ? ":- p%d_%d, p%d_%d.\n"
                                 : "w :- p%d_%d, p%d_%d.\n",
                         i, j, k, j);
      }
    }
  }
  return out;
}

TEST(Deadline, FiftyMsCutsOffEverySemantics) {
  const std::string text = PigeonholeText(11);
  // PERF rejects integrity clauses, so it gets the IC-free w-form of the
  // same instance and the equally hard query "is w in every model".
  const std::string perf_text = PigeonholeText(11, /*use_ics=*/false);
  const int64_t kDeadlineMs = 50;
  for (SemanticsKind kind : kAllKinds) {
    const bool is_perf = kind == SemanticsKind::kPerf;
    auto made = Reasoner::FromProgram(is_perf ? perf_text : text);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    Reasoner r = std::move(made).value();
    // Force the generic engines: the point is that the exponential
    // machinery itself degrades (the analyzer's polynomial fast paths
    // would legitimately answer in time).
    r.set_analysis_dispatch(false);
    if (kind == SemanticsKind::kCcwa || kind == SemanticsKind::kEcwa) {
      ASSERT_TRUE(r.SetPartition({}, {}, {}, 'p').ok());
    }
    QueryOptions q;
    q.deadline_ms = kDeadlineMs;
    auto start = steady_clock::now();
    auto ans = r.InfersFormula(kind, is_perf ? "w" : "p0_0 | p1_1", q);
    int64_t elapsed =
        duration_cast<milliseconds>(steady_clock::now() - start).count();
    ASSERT_TRUE(ans.ok()) << SemanticsKindName(kind) << ": "
                          << ans.status().ToString();
    EXPECT_EQ(*ans, Trilean::kUnknown) << SemanticsKindName(kind);
    // ~2x the deadline, plus a fixed slack for scheduler/sanitizer noise.
    EXPECT_LE(elapsed, 2 * kDeadlineMs + 200) << SemanticsKindName(kind);
  }
}

TEST(Deadline, CancelTokenAbortsFromOutside) {
  const std::string text = PigeonholeText(11);
  auto made = Reasoner::FromProgram(text);
  ASSERT_TRUE(made.ok());
  Reasoner r = std::move(made).value();
  r.set_analysis_dispatch(false);
  QueryOptions q;
  q.cancel = std::make_shared<CancelToken>();
  q.cancel->Cancel();  // cancelled before the query even starts
  auto ans = r.InfersFormula(SemanticsKind::kGcwa, "p0_0", q);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_EQ(*ans, Trilean::kUnknown);
}

// ---------------------------------------------------------------------------
// Reasoner budgeted API: pass-through and anytime payloads

TEST(ReasonerBudget, UnlimitedOptionsMatchUnbudgetedAnswers) {
  Database db = testing::Db("a | b. c :- a. e | f :- c. d :- b.");
  for (SemanticsKind kind : kAllKinds) {
    Reasoner r(db);
    if (kind == SemanticsKind::kCcwa || kind == SemanticsKind::kEcwa) {
      ASSERT_TRUE(r.SetPartition({}, {}, {}, 'p').ok());
    }
    auto plain = r.InfersFormula(kind, "a | b");
    ASSERT_TRUE(plain.ok()) << SemanticsKindName(kind);
    auto budgeted = r.InfersFormula(kind, "a | b", QueryOptions{});
    ASSERT_TRUE(budgeted.ok()) << SemanticsKindName(kind);
    EXPECT_EQ(*budgeted, TrileanFromBool(*plain)) << SemanticsKindName(kind);
  }
}

TEST(ReasonerBudget, ZeroOracleBudgetIsUnknownNotWrong) {
  Database db = testing::Db("a | b. c :- a. e | f :- c. d :- b.");
  QueryOptions starve;
  starve.oracle_call_budget = 0;
  for (SemanticsKind kind : kAllKinds) {
    Reasoner r(db);
    r.set_analysis_dispatch(false);  // force the oracle-backed engines
    if (kind == SemanticsKind::kCcwa || kind == SemanticsKind::kEcwa) {
      ASSERT_TRUE(r.SetPartition({}, {}, {}, 'p').ok());
    }
    auto ans = r.InfersFormula(kind, "a | b", starve);
    ASSERT_TRUE(ans.ok()) << SemanticsKindName(kind) << ": "
                          << ans.status().ToString();
    EXPECT_EQ(*ans, Trilean::kUnknown) << SemanticsKindName(kind);
    // The same reasoner must answer normally once the budget is gone —
    // ScopedBudget removal clears any latched interrupt.
    auto plain = r.InfersFormula(kind, "a | b");
    ASSERT_TRUE(plain.ok()) << SemanticsKindName(kind) << ": "
                            << plain.status().ToString();
    auto unlimited = r.InfersFormula(kind, "a | b", QueryOptions{});
    ASSERT_TRUE(unlimited.ok()) << SemanticsKindName(kind);
    EXPECT_EQ(*unlimited, TrileanFromBool(*plain)) << SemanticsKindName(kind);
  }
}

TEST(ReasonerBudget, TruncatedModelsAreRealModels) {
  // 4 independent disjunctive facts: 16 minimal models. A starved budget
  // must return a (possibly empty) prefix flagged truncated, and every
  // returned model must appear in the unbudgeted enumeration.
  Database db = testing::Db("a | b. c | d. e | f. g | h.");
  Reasoner full(db);
  auto reference = full.Models(SemanticsKind::kDsm, 64);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->size(), 16u);

  for (int64_t calls : {2, 5, 9}) {
    Reasoner r(db);
    QueryOptions q;
    q.oracle_call_budget = calls;
    auto ans = r.Models(SemanticsKind::kDsm, 64, q);
    ASSERT_TRUE(ans.ok()) << ans.status().ToString();
    if (!ans->truncated) {
      EXPECT_EQ(ans->models.size(), 16u);
      continue;
    }
    EXPECT_FALSE(ans->reason.ok());
    EXPECT_TRUE(ans->reason.IsBudgetExhaustion());
    EXPECT_LT(ans->models.size(), 16u);
    for (const Interpretation& m : ans->models) {
      bool found = false;
      for (const Interpretation& ref : *reference) found |= (m == ref);
      EXPECT_TRUE(found) << "truncated payload contained a non-model";
    }
  }
}

TEST(ReasonerBudget, BudgetedHasModelMatchesPlain) {
  Database sat_db = testing::Db("a | b. :- a, b.");
  Database unsat_db = testing::Db("a | b. :- a. :- b.");
  for (SemanticsKind kind :
       {SemanticsKind::kGcwa, SemanticsKind::kDsm, SemanticsKind::kPws}) {
    Reasoner rs(sat_db);
    auto yes = rs.HasModel(kind, QueryOptions{});
    ASSERT_TRUE(yes.ok());
    EXPECT_EQ(*yes, Trilean::kYes) << SemanticsKindName(kind);
    Reasoner ru(unsat_db);
    auto no = ru.HasModel(kind, QueryOptions{});
    ASSERT_TRUE(no.ok());
    EXPECT_EQ(*no, Trilean::kNo) << SemanticsKindName(kind);
  }
}

// ---------------------------------------------------------------------------
// FaultSoak: injection-tolerant never-wrong sweep.
//
// Every test below computes fault-free reference answers under an empty
// ScopedFaultPlan, then replays the same queries (a) under whatever global
// plan is active — the environment's DD_FAULT_* when the check.sh soak leg
// runs this binary — and (b) under an explicit sweep of injection points.
// Acceptable outcomes are exactly {reference answer, budget-exhaustion
// Status}; anything else (crash, flipped verdict, foreign error) fails.

struct Reference {
  bool has_model = false;
  bool infers = false;
};

Reference ComputeReference(const Database& db, SemanticsKind kind,
                           const char* formula) {
  sat::ScopedFaultPlan fault_free{sat::FaultPlan{}};
  Reasoner r(db);
  if (kind == SemanticsKind::kCcwa || kind == SemanticsKind::kEcwa) {
    EXPECT_TRUE(r.SetPartition({}, {}, {}, 'p').ok());
  }
  Reference ref;
  auto hm = r.HasModel(kind);
  EXPECT_TRUE(hm.ok()) << SemanticsKindName(kind);
  ref.has_model = hm.ok() && *hm;
  auto inf = r.InfersFormula(kind, formula);
  EXPECT_TRUE(inf.ok()) << SemanticsKindName(kind);
  ref.infers = inf.ok() && *inf;
  return ref;
}

// Runs the two queries on a fresh reasoner under the currently active
// fault plan and checks the never-wrong contract against `ref`.
void CheckNeverWrong(const Database& db, SemanticsKind kind,
                     const char* formula, const Reference& ref,
                     const char* label) {
  Reasoner r(db);
  r.set_analysis_dispatch(false);  // keep every query on the oracle path
  if (kind == SemanticsKind::kCcwa || kind == SemanticsKind::kEcwa) {
    ASSERT_TRUE(r.SetPartition({}, {}, {}, 'p').ok());
  }
  auto hm = r.HasModel(kind);
  if (hm.ok()) {
    EXPECT_EQ(*hm, ref.has_model)
        << label << " flipped HasModel for " << SemanticsKindName(kind);
  } else {
    EXPECT_TRUE(hm.status().IsBudgetExhaustion())
        << label << " " << SemanticsKindName(kind) << ": "
        << hm.status().ToString();
  }
  auto inf = r.InfersFormula(kind, formula);
  if (inf.ok()) {
    EXPECT_EQ(*inf, ref.infers)
        << label << " flipped InfersFormula for " << SemanticsKindName(kind);
  } else {
    EXPECT_TRUE(inf.status().IsBudgetExhaustion())
        << label << " " << SemanticsKindName(kind) << ": "
        << inf.status().ToString();
  }
}

TEST(FaultSoak, EverySemanticsIsReferenceOrUnknown) {
  // Mixed database: disjunction, derivation chain, stratified negation —
  // meaningful for all 11 semantics and small enough that references are
  // instant when no fault fires. PWS and DDR are only defined for
  // negation-free databases, so they run the same family with the `not e`
  // guard dropped.
  Database db_full = testing::Db("a | b. c :- a. e | f :- c. d :- b, not e.");
  Database db_nonneg = testing::Db("a | b. c :- a. e | f :- c. d :- b.");
  const char* formula = "c | d";
  for (SemanticsKind kind : kAllKinds) {
    const bool negation_free =
        kind == SemanticsKind::kPws || kind == SemanticsKind::kDdr;
    const Database& db = negation_free ? db_nonneg : db_full;
    Reference ref = ComputeReference(db, kind, formula);
    // (a) Under the ambient plan (the environment's DD_FAULT_* when the
    // soak leg runs; a no-op plan otherwise). ComputeReference's scope
    // reset the global solve counter on exit, so the env plan is re-armed.
    CheckNeverWrong(db, kind, formula, ref, "env-plan");
    // (b) Explicit sweep over early injection points.
    for (int64_t k = 1; k <= 6; ++k) {
      sat::FaultPlan plan;
      plan.unknown_at = k;
      sat::ScopedFaultPlan scoped(plan);
      CheckNeverWrong(db, kind, formula, ref, "unknown_at");
    }
    for (int64_t k = 0; k <= 4; ++k) {
      sat::FaultPlan plan;
      plan.exhaust_after = k;  // k == 0 disables (explicit no-op round)
      sat::ScopedFaultPlan scoped(plan);
      CheckNeverWrong(db, kind, formula, ref, "exhaust_after");
    }
  }
}

TEST(FaultSoak, IntegrityClauseFamilyNeverWrong) {
  // The Table-2 shape: integrity clauses close the polynomial shortcuts
  // of the CWA family, so faults land on live oracle paths.
  Database db = testing::Db("a | b. c | d :- a. :- b, c. e :- d.");
  const char* formula = "a | e";
  for (SemanticsKind kind :
       {SemanticsKind::kCwa, SemanticsKind::kGcwa, SemanticsKind::kEgcwa,
        SemanticsKind::kDdr, SemanticsKind::kPws, SemanticsKind::kDsm}) {
    Reference ref = ComputeReference(db, kind, formula);
    CheckNeverWrong(db, kind, formula, ref, "env-plan");
    for (int64_t k = 1; k <= 8; ++k) {
      sat::FaultPlan plan;
      plan.unknown_at = k;
      sat::ScopedFaultPlan scoped(plan);
      CheckNeverWrong(db, kind, formula, ref, "unknown_at");
    }
  }
}

TEST(FaultSoak, StabilityChecksRearmAfterFault) {
  // DSM and PDSM stability checks run on one persistent selector-guarded
  // engine per instance. A fault mid-sweep may turn verdicts into a
  // budget-exhaustion status but must never flip one, and after
  // SetBudget(nullptr) re-arms the engine every verdict is exact again —
  // so no memo entry was stored from an interrupted check.
  Database db = testing::Db(
      "a :- not b. b :- not a. c | d :- a. e :- c, not e. :- d, b.");
  const auto stable = testing::ModelSet(brute::StableModels(db));
  const auto all_models = brute::AllModels(db);
  const auto partial_stable = brute::PartialStableModels(db);
  const std::set<PartialInterpretation> partial_set(partial_stable.begin(),
                                                    partial_stable.end());
  const auto all_partial = testing::AllPartialInterpretations(db.num_vars());

  // Runs every check once and returns how many ended in a status;
  // `strict` demands definite answers.
  auto sweep = [&](DsmSemantics* dsm, PdsmSemantics* pdsm, bool strict,
                   int64_t k) {
    int unknowns = 0;
    auto check = [&](const Result<bool>& got, bool expected,
                     const char* which) {
      if (got.ok()) {
        EXPECT_EQ(*got, expected) << which << " k=" << k;
        return;
      }
      ++unknowns;
      EXPECT_FALSE(strict) << which << " k=" << k << ": "
                           << got.status().ToString();
      EXPECT_TRUE(got.status().IsBudgetExhaustion())
          << got.status().ToString();
    };
    for (const Interpretation& m : all_models) {
      check(dsm->IsStable(m), stable.count(m) > 0, "DSM");
    }
    for (const PartialInterpretation& i : all_partial) {
      check(pdsm->IsPartialStable(i), partial_set.count(i) > 0, "PDSM");
    }
    return unknowns;
  };

  for (int64_t k = 1; k <= 6; ++k) {
    DsmSemantics dsm(db);
    PdsmSemantics pdsm(db);
    {
      sat::FaultPlan plan;
      plan.unknown_at = k;
      sat::ScopedFaultPlan scoped(plan);
      // The k-th solve of the sweep faults, and the interrupt stays
      // latched until SetBudget.
      EXPECT_GT(sweep(&dsm, &pdsm, /*strict=*/false, k), 0) << "k=" << k;
    }
    sat::ScopedFaultPlan fault_free{sat::FaultPlan{}};
    dsm.SetBudget(nullptr);
    pdsm.SetBudget(nullptr);
    sweep(&dsm, &pdsm, /*strict=*/true, k);
  }
}

TEST(FaultSoak, PerfInferenceNeverWrong) {
  // PERF inference runs the engine's entailment loop when the database has
  // no negation and a minimal-model enumeration otherwise. A fault in
  // either may turn a verdict into a budget-exhaustion status but must
  // never flip it, and after SetBudget(nullptr) re-arms the engine every
  // verdict is exact. Every formula uses only atoms of both databases.
  const Database dbs[] = {
      testing::Db("a | b. c | d :- a. e :- c, d. e | f :- b. d :- e."),
      testing::Db("a | b. c :- a, not d. d | e :- b. f :- not c. g | f."),
  };
  const char* const formulas[] = {"a | b", "c | d | f", "~e", "b -> f",
                                  "~a & ~f", "e | ~f"};
  for (const Database& db : dbs) {
    Database parsed = db;
    std::vector<Formula> fs;
    std::vector<bool> expected;
    const auto perfect = brute::PerfectModels(db);
    const auto perfect_set = testing::ModelSet(perfect);
    for (const char* text : formulas) {
      fs.push_back(testing::F(&parsed, text));
      expected.push_back(brute::Infers(perfect, fs.back()));
    }
    // Runs every query once and returns how many ended in a status;
    // `strict` demands definite answers.
    auto sweep = [&](PerfSemantics* perf, bool strict, const char* label,
                     int64_t k) {
      int unknowns = 0;
      for (size_t i = 0; i < fs.size(); ++i) {
        auto inf = perf->InfersFormula(fs[i]);
        auto ce = perf->FindCounterexample(fs[i]);
        for (const Status& st : {inf.status(), ce.status()}) {
          if (st.ok()) continue;
          ++unknowns;
          EXPECT_FALSE(strict) << label << " k=" << k << ": "
                               << st.ToString();
          EXPECT_TRUE(st.IsBudgetExhaustion()) << st.ToString();
        }
        if (inf.ok()) {
          EXPECT_EQ(*inf, expected[i])
              << label << " k=" << k << " flipped " << formulas[i];
        }
        if (ce.ok()) {
          EXPECT_EQ(ce->has_value(), !expected[i])
              << label << " k=" << k << " flipped " << formulas[i];
          if (ce->has_value()) {
            EXPECT_FALSE(fs[i]->Eval(**ce)) << formulas[i];
            EXPECT_TRUE(perfect_set.count(**ce) > 0) << formulas[i];
          }
        }
      }
      return unknowns;
    };

    {
      // Under the ambient plan (the environment's DD_FAULT_* when the
      // soak leg runs; a no-op plan otherwise).
      PerfSemantics perf(db);
      sweep(&perf, /*strict=*/false, "env-plan", 0);
    }
    std::vector<sat::FaultPlan> plans;
    for (int64_t k = 1; k <= 12; ++k) plans.push_back({k, 0});  // unknown_at
    for (int64_t k = 1; k <= 4; ++k) plans.push_back({0, k});   // exhaust_after
    for (const sat::FaultPlan& plan : plans) {
      const int64_t k = plan.unknown_at + plan.exhaust_after;
      PerfSemantics perf(db);
      {
        sat::ScopedFaultPlan scoped(plan);
        // The faulty solve latches the interrupt until SetBudget, so some
        // query must end in a status.
        EXPECT_GT(sweep(&perf, /*strict=*/false, "faulty", k), 0)
            << db.ToString() << "unknown_at=" << plan.unknown_at
            << " exhaust_after=" << plan.exhaust_after;
      }
      sat::ScopedFaultPlan fault_free{sat::FaultPlan{}};
      perf.SetBudget(nullptr);
      sweep(&perf, /*strict=*/true, "re-armed", k);
    }
  }
}

TEST(FaultSoak, AnswersIdenticalAcrossThreadCounts) {
  // Parallel split/clause scans must produce bit-identical verdicts (or a
  // clean Unknown under injection) regardless of worker count. PWS only
  // accepts negation-free programs, so its variant drops the `not b` guard.
  Database db_full = testing::Db(
      "a | b. c | d. e | f :- a. g :- c, e. :- b, d. h :- g, not b.");
  Database db_pws = testing::Db(
      "a | b. c | d. e | f :- a. g :- c, e. :- b, d. h :- g.");
  const char* formula = "a | g | h";
  for (SemanticsKind kind :
       {SemanticsKind::kPws, SemanticsKind::kEgcwa, SemanticsKind::kDsm}) {
    const Database& db = kind == SemanticsKind::kPws ? db_pws : db_full;
    sat::ScopedFaultPlan fault_free{sat::FaultPlan{}};
    std::vector<int> verdicts;
    for (int threads : {1, 2, 4}) {
      SemanticsOptions opts;
      opts.num_threads = threads;
      Reasoner r(db, opts);
      auto inf = r.InfersFormula(kind, formula);
      ASSERT_TRUE(inf.ok())
          << SemanticsKindName(kind) << " threads=" << threads;
      verdicts.push_back(*inf ? 1 : 0);
    }
    EXPECT_EQ(verdicts[0], verdicts[1]) << SemanticsKindName(kind);
    EXPECT_EQ(verdicts[0], verdicts[2]) << SemanticsKindName(kind);
    // Same sweep under injection: any thread count may answer Unknown,
    // but a definite answer must equal the single-threaded reference.
    for (int threads : {2, 4}) {
      sat::FaultPlan plan;
      plan.unknown_at = 3;
      sat::ScopedFaultPlan scoped(plan);
      SemanticsOptions opts;
      opts.num_threads = threads;
      Reasoner r(db, opts);
      auto inf = r.InfersFormula(kind, formula);
      if (inf.ok()) {
        EXPECT_EQ(*inf ? 1 : 0, verdicts[0])
            << SemanticsKindName(kind) << " threads=" << threads;
      } else {
        EXPECT_TRUE(inf.status().IsBudgetExhaustion())
            << inf.status().ToString();
      }
    }
  }
}

TEST(FaultSoak, SharedViewMemoNeverPoisoned) {
  // The six Π₂ᵖ semantics of a positive database borrow ONE view engine
  // and its entailment memo on a Reasoner. A fault during the first
  // semantics may turn its verdict into Unknown but never flip it; after
  // SetBudget(nullptr) re-arms the shared engine, the other five must
  // equal brute force exactly — so no memo entry was stored from the
  // interrupted call. Gadgets of both verdicts are drawn: an interrupted
  // search returns the placeholder "entailed", which only a memo poisoned
  // on a not-entailed gadget would replay.
  const SemanticsKind six[] = {SemanticsKind::kGcwa, SemanticsKind::kEgcwa,
                               SemanticsKind::kEcwa, SemanticsKind::kCcwa,
                               SemanticsKind::kIcwa, SemanticsKind::kPerf};
  std::vector<sat::FaultPlan> plans;
  for (int64_t k = 1; k <= 12; ++k) plans.push_back({k, 0});  // unknown_at
  for (int64_t k = 0; k <= 4; ++k) plans.push_back({0, k});   // exhaust_after
  Rng rng(424);
  int per_verdict[2] = {0, 0};  // gadgets kept per expected verdict
  int unknowns = 0;
  for (int gadget = 0; gadget < 200; ++gadget) {
    if (per_verdict[0] >= 2 && per_verdict[1] >= 2) break;
    QbfForallExistsCnf qbf = RandomQbf(2, 2, 6, 3, &rng);
    ReducedInstance inst = ReducePi2ToGcwaLiteral(qbf);
    const Database& db = inst.db;
    const std::string query = "not " + db.vocabulary().Name(inst.w);
    // On a positive database all six agree with EGCWA: MM(DB) |= ¬w.
    const bool expected =
        brute::Infers(brute::MinimalModels(db),
                      FormulaNode::MakeLit(Lit::Neg(inst.w)));
    if (per_verdict[expected ? 1 : 0]++ >= 2) continue;
    for (const sat::FaultPlan& plan : plans) {
      for (size_t first = 0; first < 6; ++first) {
        Reasoner r(db);
        r.set_analysis_dispatch(false);  // all six on the full view
        {
          sat::ScopedFaultPlan scoped(plan);
          auto got = r.InfersLiteral(six[first], query);
          if (got.ok()) {
            EXPECT_EQ(*got, expected) << SemanticsKindName(six[first]);
          } else {
            ++unknowns;
            EXPECT_TRUE(got.status().IsBudgetExhaustion())
                << got.status().ToString();
          }
        }
        sat::ScopedFaultPlan fault_free{sat::FaultPlan{}};
        r.Get(six[first])->SetBudget(nullptr);
        for (size_t i = 0; i < 6; ++i) {
          if (i == first) continue;
          auto got = r.InfersLiteral(six[i], query);
          ASSERT_TRUE(got.ok()) << SemanticsKindName(six[first]) << " then "
                                << SemanticsKindName(six[i]) << ": "
                                << got.status().ToString();
          EXPECT_EQ(*got, expected)
              << "gadget " << gadget << ": " << SemanticsKindName(six[first])
              << " then " << SemanticsKindName(six[i])
              << " unknown_at=" << plan.unknown_at
              << " exhaust_after=" << plan.exhaust_after;
        }
      }
    }
  }
  EXPECT_GE(per_verdict[0], 2);  // not-entailed gadgets were exercised
  EXPECT_GE(per_verdict[1], 2);  // entailed ones too
  EXPECT_GT(unknowns, 0);        // some injection point hit a query
}

}  // namespace
}  // namespace dd
