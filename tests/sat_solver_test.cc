#include <vector>

#include "gtest/gtest.h"
#include "sat/solver.h"
#include "util/rng.h"

namespace dd {
namespace {

using sat::SolveResult;
using sat::Solver;

// Exhaustive reference check.
bool BruteSat(int n, const std::vector<std::vector<Lit>>& clauses,
              const std::vector<Lit>& assumptions) {
  for (uint64_t m = 0; m < (uint64_t{1} << n); ++m) {
    auto val = [&](Lit l) {
      bool t = (m >> l.var()) & 1;
      return l.positive() ? t : !t;
    };
    bool ok = true;
    for (Lit a : assumptions) {
      if (!val(a)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    for (const auto& c : clauses) {
      bool sat = false;
      for (Lit l : c) {
        if (val(l)) {
          sat = true;
          break;
        }
      }
      if (!sat) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

TEST(Solver, EmptyInstanceIsSat) {
  Solver s;
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
}

TEST(Solver, UnitPropagationChain) {
  Solver s;
  s.EnsureVars(4);
  s.AddUnit(Lit::Pos(0));
  s.AddBinary(Lit::Neg(0), Lit::Pos(1));
  s.AddBinary(Lit::Neg(1), Lit::Pos(2));
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  Interpretation m = s.Model(4);
  EXPECT_TRUE(m.Contains(0));
  EXPECT_TRUE(m.Contains(1));
  EXPECT_TRUE(m.Contains(2));
}

TEST(Solver, TrivialConflict) {
  Solver s;
  s.AddUnit(Lit::Pos(0));
  s.AddUnit(Lit::Neg(0));
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
  // Stays UNSAT forever.
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
}

TEST(Solver, EmptyClauseMakesUnsat) {
  Solver s;
  s.AddClause({});
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
}

TEST(Solver, TautologyDropped) {
  Solver s;
  s.AddClause({Lit::Pos(0), Lit::Neg(0)});
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
}

TEST(Solver, AssumptionsDoNotPersist) {
  Solver s;
  s.EnsureVars(2);
  s.AddBinary(Lit::Pos(0), Lit::Pos(1));
  EXPECT_EQ(s.Solve({Lit::Neg(0), Lit::Neg(1)}), SolveResult::kUnsat);
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_EQ(s.Solve({Lit::Neg(0)}), SolveResult::kSat);
  EXPECT_TRUE(s.Model(2).Contains(1));
}

TEST(Solver, FailedAssumptionsAreACore) {
  Solver s;
  s.EnsureVars(4);
  s.AddBinary(Lit::Neg(0), Lit::Pos(1));  // 0 -> 1
  // Assume 0 and ~1: contradiction; 3 is irrelevant.
  auto r = s.Solve({Lit::Pos(3), Lit::Pos(0), Lit::Neg(1)});
  ASSERT_EQ(r, SolveResult::kUnsat);
  const auto& core = s.FailedAssumptions();
  EXPECT_FALSE(core.empty());
  for (Lit l : core) {
    EXPECT_TRUE(l == Lit::Pos(3) || l == Lit::Pos(0) || l == Lit::Neg(1));
  }
  // The core itself must be inconsistent with the clauses.
  EXPECT_FALSE(
      BruteSat(4, {{Lit::Neg(0), Lit::Pos(1)}}, core));
}

TEST(Solver, ConflictBudgetReturnsUnknown) {
  // Pigeonhole 7->6 cannot be refuted within 3 conflicts.
  Solver s;
  const int P = 7, H = 6;
  s.EnsureVars(P * H);
  auto v = [&](int p, int h) { return static_cast<Var>(p * H + h); };
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < H; ++h) c.push_back(Lit::Pos(v(p, h)));
    s.AddClause(c);
  }
  for (int h = 0; h < H; ++h) {
    for (int p = 0; p < P; ++p) {
      for (int q = p + 1; q < P; ++q) {
        s.AddBinary(Lit::Neg(v(p, h)), Lit::Neg(v(q, h)));
      }
    }
  }
  s.SetConflictBudget(3);
  EXPECT_EQ(s.Solve(), SolveResult::kUnknown);
  s.SetConflictBudget(-1);
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
}

TEST(Solver, PigeonholeUnsat) {
  for (int P = 3; P <= 7; ++P) {
    const int H = P - 1;
    Solver s;
    s.EnsureVars(P * H);
    auto v = [&](int p, int h) { return static_cast<Var>(p * H + h); };
    for (int p = 0; p < P; ++p) {
      std::vector<Lit> c;
      for (int h = 0; h < H; ++h) c.push_back(Lit::Pos(v(p, h)));
      s.AddClause(c);
    }
    for (int h = 0; h < H; ++h) {
      for (int p = 0; p < P; ++p) {
        for (int q = p + 1; q < P; ++q) {
          s.AddBinary(Lit::Neg(v(p, h)), Lit::Neg(v(q, h)));
        }
      }
    }
    EXPECT_EQ(s.Solve(), SolveResult::kUnsat) << P;
  }
}

TEST(Solver, DefaultPolarityFalseYieldsSmallModels) {
  Solver s;
  s.EnsureVars(8);
  s.SetDefaultPolarity(false);
  for (int i = 0; i + 1 < 8; i += 2) {
    s.AddBinary(Lit::Pos(i), Lit::Pos(i + 1));
  }
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  // One of each pair suffices; prefer-false should not set both.
  EXPECT_LE(s.Model(8).TrueCount(), 4);
}

TEST(Solver, StatsAccumulate) {
  Solver s;
  s.EnsureVars(2);
  s.AddBinary(Lit::Pos(0), Lit::Pos(1));
  s.Solve();
  s.Solve({Lit::Neg(0)});
  EXPECT_EQ(s.stats().solve_calls, 2);
  EXPECT_GE(s.stats().propagations, 0);
}

TEST(Solver, RandomizedAgainstBruteForce) {
  Rng rng(20240705);
  for (int iter = 0; iter < 2000; ++iter) {
    int n = 3 + static_cast<int>(rng.Below(8));
    int m = 2 + static_cast<int>(rng.Below(static_cast<uint64_t>(3 * n)));
    std::vector<std::vector<Lit>> clauses;
    for (int i = 0; i < m; ++i) {
      int len = 1 + static_cast<int>(rng.Below(4));
      std::vector<Lit> c;
      for (int j = 0; j < len; ++j) {
        c.push_back(Lit::Make(static_cast<Var>(rng.Below(n)),
                              rng.Chance(0.5)));
      }
      clauses.push_back(c);
    }
    std::vector<Lit> assumptions;
    for (uint64_t j = 0; j < rng.Below(3); ++j) {
      assumptions.push_back(
          Lit::Make(static_cast<Var>(rng.Below(n)), rng.Chance(0.5)));
    }
    Solver s;
    s.EnsureVars(n);
    for (const auto& c : clauses) s.AddClause(c);
    SolveResult r = s.Solve(assumptions);
    bool expected = BruteSat(n, clauses, assumptions);
    ASSERT_EQ(r == SolveResult::kSat, expected) << "iter " << iter;
    if (r == SolveResult::kSat) {
      Interpretation model = s.Model(n);
      for (Lit a : assumptions) ASSERT_TRUE(model.Satisfies(a));
      for (const auto& c : clauses) {
        bool sat = false;
        for (Lit l : c) sat |= model.Satisfies(l);
        ASSERT_TRUE(sat) << "iter " << iter;
      }
    } else {
      // Core is a subset of the assumptions, inconsistent with clauses.
      for (Lit f : s.FailedAssumptions()) {
        bool member = false;
        for (Lit a : assumptions) member |= (a == f);
        ASSERT_TRUE(member);
      }
      ASSERT_FALSE(BruteSat(n, clauses, s.FailedAssumptions()));
    }
  }
}

TEST(Solver, IncrementalClauseAddition) {
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    int n = 4 + static_cast<int>(rng.Below(5));
    Solver s;
    s.EnsureVars(n);
    std::vector<std::vector<Lit>> so_far;
    for (int round = 0; round < 6; ++round) {
      int len = 1 + static_cast<int>(rng.Below(3));
      std::vector<Lit> c;
      for (int j = 0; j < len; ++j) {
        c.push_back(Lit::Make(static_cast<Var>(rng.Below(n)),
                              rng.Chance(0.5)));
      }
      so_far.push_back(c);
      s.AddClause(c);
      ASSERT_EQ(s.Solve() == SolveResult::kSat, BruteSat(n, so_far, {}))
          << "iter " << iter << " round " << round;
    }
  }
}

TEST(Solver, LongIncrementalAssumptionRunsMatchBruteForce) {
  // One solver answers hundreds of assumption calls while clauses keep
  // arriving, as a persistent oracle session does. Assumptions may name
  // variables the solver has not seen yet (it grows on demand). Every
  // verdict, model and core is checked against exhaustive search.
  Rng rng(20261019);
  for (int instance = 0; instance < 12; ++instance) {
    const int n = 5 + static_cast<int>(rng.Below(5));  // 5..9 clause vars
    const int span = n + 2;  // assumptions may reach two fresh variables
    Solver s;
    s.EnsureVars(n);
    std::vector<std::vector<Lit>> clauses;
    for (int call = 0; call < 300; ++call) {
      if (rng.Chance(0.1)) {
        std::vector<Lit> c;
        for (int j = 0; j < 3; ++j) {
          c.push_back(Lit::Make(static_cast<Var>(rng.Below(n)),
                                rng.Chance(0.5)));
        }
        clauses.push_back(c);
        s.AddClause(c);
      }
      std::vector<Lit> assumptions;
      const uint64_t k = rng.Below(5);
      for (uint64_t j = 0; j < k; ++j) {
        assumptions.push_back(Lit::Make(
            static_cast<Var>(rng.Below(static_cast<uint64_t>(span))),
            rng.Chance(0.5)));
      }
      SolveResult r = s.Solve(assumptions);
      const bool expected = BruteSat(span, clauses, assumptions);
      ASSERT_EQ(r == SolveResult::kSat, expected)
          << "instance " << instance << " call " << call;
      if (r == SolveResult::kSat) {
        Interpretation model = s.Model(span);
        for (Lit a : assumptions) ASSERT_TRUE(model.Satisfies(a));
        for (const auto& c : clauses) {
          bool sat = false;
          for (Lit l : c) sat |= model.Satisfies(l);
          ASSERT_TRUE(sat) << "instance " << instance << " call " << call;
        }
      } else {
        ASSERT_FALSE(BruteSat(span, clauses, s.FailedAssumptions()))
            << "instance " << instance << " call " << call;
      }
    }
  }
}

}  // namespace
}  // namespace dd
