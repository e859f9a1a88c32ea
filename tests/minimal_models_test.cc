#include <set>

#include "core/brute_force.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "minimal/minimal_models.h"
#include "tests/test_util.h"

namespace dd {
namespace {

using testing::Db;
using testing::F;
using testing::ModelSet;

// A random partition of [0, n) into P/Q/Z.
Partition RandomPartition(Rng* rng, int n) {
  Partition p;
  p.p = Interpretation(n);
  p.q = Interpretation(n);
  p.z = Interpretation(n);
  for (Var v = 0; v < n; ++v) {
    switch (rng->Below(3)) {
      case 0:
        p.p.Insert(v);
        break;
      case 1:
        p.q.Insert(v);
        break;
      default:
        p.z.Insert(v);
        break;
    }
  }
  // Keep P nonempty so minimization has something to do.
  if (p.p.TrueCount() == 0 && n > 0) {
    Var v = static_cast<Var>(rng->Below(static_cast<uint64_t>(n)));
    p.q.Erase(v);
    p.z.Erase(v);
    p.p.Insert(v);
  }
  return p;
}

Database RandomTestDb(Rng* rng, bool allow_negation) {
  DdbConfig cfg;
  cfg.num_vars = 4 + static_cast<int>(rng->Below(4));  // 4..7
  cfg.num_clauses = 4 + static_cast<int>(rng->Below(10));
  cfg.max_head = 3;
  cfg.max_body = 2;
  cfg.fact_fraction = 0.4;
  cfg.integrity_fraction = 0.15;
  cfg.negation_fraction = allow_negation ? 0.3 : 0.0;
  cfg.seed = rng->Next();
  return RandomDdb(cfg);
}

TEST(MinimalEngine, HasModelAndFindModel) {
  Database sat = Db("a | b. c :- a.");
  MinimalEngine e1(sat);
  EXPECT_TRUE(e1.HasModel());
  auto m = e1.FindModel();
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(sat.Satisfies(*m));

  Database unsat = Db("a. :- a.");
  MinimalEngine e2(unsat);
  EXPECT_FALSE(e2.HasModel());
  EXPECT_FALSE(e2.FindModel().has_value());
}

TEST(MinimalEngine, IsMinimalHandPicked) {
  Database db = Db("a | b.");
  MinimalEngine e(db);
  Partition all = Partition::MinimizeAll(db.num_vars());
  EXPECT_TRUE(e.IsMinimal(Interpretation::FromAtoms(2, {0}), all));
  EXPECT_TRUE(e.IsMinimal(Interpretation::FromAtoms(2, {1}), all));
  EXPECT_FALSE(e.IsMinimal(Interpretation::FromAtoms(2, {0, 1}), all));
  EXPECT_FALSE(e.IsMinimal(Interpretation::FromAtoms(2, {}), all));  // no model
}

TEST(MinimalEngine, MinimizeReachesAMinimalModelBelow) {
  Rng rng(555);
  for (int iter = 0; iter < 150; ++iter) {
    Database db = RandomTestDb(&rng, /*allow_negation=*/true);
    MinimalEngine e(db);
    auto m = e.FindModel();
    if (!m.has_value()) continue;
    Partition pqz = RandomPartition(&rng, db.num_vars());
    Interpretation mm = e.Minimize(*m, pqz);
    ASSERT_TRUE(db.Satisfies(mm));
    ASSERT_TRUE(e.IsMinimal(mm, pqz)) << db.ToString();
    // P-part shrank, Q-part preserved.
    ASSERT_TRUE(mm.SubsetOfOn(*m, pqz.p));
    ASSERT_TRUE(mm.EqualOn(*m, pqz.q));
  }
}

TEST(MinimalEngine, EnumerateMinimalModelsMatchesBruteForce) {
  Rng rng(777);
  for (int iter = 0; iter < 120; ++iter) {
    Database db = RandomTestDb(&rng, /*allow_negation=*/true);
    MinimalEngine e(db);
    Partition all = Partition::MinimizeAll(db.num_vars());
    std::vector<Interpretation> got;
    e.EnumerateMinimalProjections(all, -1, [&](const Interpretation& m) {
      got.push_back(m);
      return true;
    });
    auto expected = brute::MinimalModels(db);
    ASSERT_EQ(ModelSet(got), ModelSet(expected)) << db.ToString();
  }
}

TEST(MinimalEngine, EnumerateAllPqzMinimalMatchesBruteForce) {
  Rng rng(888);
  for (int iter = 0; iter < 120; ++iter) {
    Database db = RandomTestDb(&rng, /*allow_negation=*/true);
    MinimalEngine e(db);
    Partition pqz = RandomPartition(&rng, db.num_vars());
    std::vector<Interpretation> got;
    e.EnumerateAllMinimalModels(pqz, -1, [&](const Interpretation& m) {
      got.push_back(m);
      return true;
    });
    auto expected = brute::PqzMinimalModels(db, pqz);
    ASSERT_EQ(ModelSet(got), ModelSet(expected)) << db.ToString();
  }
}

TEST(MinimalEngine, EnumerateAllWithoutZIsTheProjectionStream) {
  // With Z = ∅ a minimal projection is a whole model and its only
  // completion: EnumerateAllMinimalModels emits the projection stream
  // itself — the same models in the same order for the same SAT calls as
  // EnumerateMinimalProjections on a fresh engine, no re-solve per model.
  Rng rng(999);
  for (int iter = 0; iter < 120; ++iter) {
    Database db = RandomTestDb(&rng, /*allow_negation=*/true);
    Partition pqz = iter % 3 == 0 ? Partition::MinimizeAll(db.num_vars())
                                  : RandomPartition(&rng, db.num_vars());
    for (Var v : pqz.z.TrueAtoms()) {
      pqz.z.Erase(v);
      pqz.p.Insert(v);
    }
    MinimalEngine all_engine(db);
    MinimalEngine proj_engine(db);
    std::vector<Interpretation> all;
    std::vector<Interpretation> proj;
    all_engine.EnumerateAllMinimalModels(pqz, -1,
                                         [&](const Interpretation& m) {
                                           all.push_back(m);
                                           return true;
                                         });
    proj_engine.EnumerateMinimalProjections(pqz, -1,
                                            [&](const Interpretation& m) {
                                              proj.push_back(m);
                                              return true;
                                            });
    ASSERT_EQ(all, proj) << db.ToString();
    ASSERT_EQ(all_engine.stats().sat_calls, proj_engine.stats().sat_calls)
        << db.ToString();
    ASSERT_EQ(ModelSet(all), ModelSet(brute::PqzMinimalModels(db, pqz)))
        << db.ToString();
  }
}

TEST(MinimalEngine, IsMinimalAgreesWithBruteForceUnderPqz) {
  Rng rng(999);
  for (int iter = 0; iter < 80; ++iter) {
    Database db = RandomTestDb(&rng, /*allow_negation=*/true);
    MinimalEngine e(db);
    Partition pqz = RandomPartition(&rng, db.num_vars());
    auto minimal = ModelSet(brute::PqzMinimalModels(db, pqz));
    for (const auto& m : brute::AllModels(db)) {
      ASSERT_EQ(e.IsMinimal(m, pqz), minimal.count(m) > 0) << db.ToString();
    }
  }
}

TEST(MinimalEngine, MinimalEntailsMatchesBruteForce) {
  Rng rng(1234);
  for (int iter = 0; iter < 150; ++iter) {
    Database db = RandomTestDb(&rng, /*allow_negation=*/true);
    MinimalEngine e(db);
    Partition pqz = RandomPartition(&rng, db.num_vars());
    Formula f = testing::RandomFormula(&rng, db.num_vars(), 3);
    bool got = e.MinimalEntails(f, pqz);
    bool expected = brute::Infers(brute::PqzMinimalModels(db, pqz), f);
    ASSERT_EQ(got, expected) << db.ToString() << "\nF = "
                             << f->ToString(db.vocabulary());
  }
}

TEST(MinimalEngine, ExistsMinimalModelWithMatchesBruteForce) {
  Rng rng(4321);
  for (int iter = 0; iter < 150; ++iter) {
    Database db = RandomTestDb(&rng, /*allow_negation=*/true);
    MinimalEngine e(db);
    Partition pqz = RandomPartition(&rng, db.num_vars());
    Lit l = Lit::Make(static_cast<Var>(rng.Below(db.num_vars())),
                      rng.Chance(0.5));
    Interpretation witness;
    bool got = e.ExistsMinimalModelWith(l, pqz, &witness);
    bool expected = false;
    for (const auto& m : brute::PqzMinimalModels(db, pqz)) {
      if (m.Satisfies(l)) expected = true;
    }
    ASSERT_EQ(got, expected) << db.ToString();
    if (got) {
      ASSERT_TRUE(witness.Satisfies(l));
      ASSERT_TRUE(e.IsMinimal(witness, pqz));
    }
  }
}

TEST(MinimalEngine, FreeAtomsMatchesBruteForce) {
  Rng rng(31337);
  for (int iter = 0; iter < 100; ++iter) {
    Database db = RandomTestDb(&rng, /*allow_negation=*/true);
    MinimalEngine e(db);
    Partition pqz = RandomPartition(&rng, db.num_vars());
    Interpretation free = e.FreeAtoms(pqz);
    Interpretation expected(db.num_vars());
    for (const auto& m : brute::PqzMinimalModels(db, pqz)) {
      for (Var v : m.TrueAtoms()) {
        if (pqz.p.Contains(v)) expected.Insert(v);
      }
    }
    ASSERT_EQ(free, expected) << db.ToString();
  }
}

TEST(MinimalEngine, StatsAreCounted) {
  Database db = Db("a | b. c | d :- a.");
  MinimalEngine e(db);
  Partition all = Partition::MinimizeAll(db.num_vars());
  e.EnumerateMinimalProjections(all, -1,
                                [](const Interpretation&) { return true; });
  EXPECT_GT(e.stats().sat_calls, 0);
  EXPECT_GT(e.stats().minimizations, 0);
  EXPECT_GT(e.stats().models_enumerated, 0);
  e.ResetStats();
  EXPECT_EQ(e.stats().sat_calls, 0);
}

TEST(MinimalEngine, EnumerationCapStopsEarly) {
  Database db = Db("a | b. c | d. e | f.");
  MinimalEngine e(db);
  Partition all = Partition::MinimizeAll(db.num_vars());
  int count = e.EnumerateMinimalProjections(
      all, 3, [](const Interpretation&) { return true; });
  EXPECT_EQ(count, 3);
}

TEST(MinimalEngine, UnsatDatabaseBehaviour) {
  Database db = Db("a. :- a.");
  MinimalEngine e(db);
  Partition all = Partition::MinimizeAll(db.num_vars());
  int count = e.EnumerateMinimalProjections(
      all, -1, [](const Interpretation&) { return true; });
  EXPECT_EQ(count, 0);
  // Everything is vacuously entailed.
  Database* dbp = &db;
  EXPECT_TRUE(e.MinimalEntails(F(dbp, "a & ~a"), all));
  EXPECT_FALSE(e.ExistsMinimalModelWith(Lit::Pos(0), all));
}

TEST(MinimalEngine, MinimizeUsesOneActivationPerCall) {
  // Every descent round's "strictly smaller" clause rides the context's
  // own activation: an uncached Minimize allocates exactly one session
  // variable however many rounds it runs; a memoized one allocates none.
  Rng rng(9090);
  int multi_round = 0;
  for (int iter = 0; iter < 60; ++iter) {
    Database db = RandomTestDb(&rng, /*allow_negation=*/true);
    MinimalEngine e(db);
    Partition pqz = RandomPartition(&rng, db.num_vars());
    for (const Interpretation& m : brute::AllModels(db)) {
      const Var vars_before = e.session()->next_var();
      const int64_t calls_before = e.stats().sat_calls;
      const int64_t misses_before = e.session_stats().cache_misses;
      Interpretation mm = e.Minimize(m, pqz);
      const Var grown = e.session()->next_var() - vars_before;
      const int64_t calls = e.stats().sat_calls - calls_before;
      ASSERT_TRUE(grown == 0 || grown == 1) << db.ToString();
      // A call that reached the oracle missed both memo lookups.
      if (calls > 0) {
        ASSERT_EQ(grown, 1) << db.ToString();
      }
      if (grown == 1) {
        ASSERT_GT(e.session_stats().cache_misses, misses_before);
      }
      if (calls >= 2) ++multi_round;
      ASSERT_TRUE(e.IsMinimal(mm, pqz)) << db.ToString();
    }
  }
  EXPECT_GT(multi_round, 0);  // the sweep exercised multi-round descents
}

TEST(MinimalEngine, EntailmentMemoAnswersRepeatsWithoutOracleCalls) {
  // MinimalEntails memoizes verdict and counterexample per partition and
  // formula: a repeat costs no oracle call and returns the same witness,
  // and neither another partition nor another formula can alias it.
  Rng rng(5150);
  for (int iter = 0; iter < 80; ++iter) {
    Database db = RandomTestDb(&rng, /*allow_negation=*/true);
    MinimalEngine e(db);
    const Partition parts[] = {Partition::MinimizeAll(db.num_vars()),
                               RandomPartition(&rng, db.num_vars())};
    const Formula fs[] = {testing::RandomFormula(&rng, db.num_vars(), 3),
                          testing::RandomFormula(&rng, db.num_vars(), 3)};
    for (int round = 0; round < 2; ++round) {
      for (const Partition& pqz : parts) {
        for (const Formula& f : fs) {
          const int64_t calls_before = e.stats().sat_calls;
          Interpretation ce;
          const bool got = e.MinimalEntails(f, pqz, &ce);
          const auto minimal = brute::PqzMinimalModels(db, pqz);
          ASSERT_EQ(got, brute::Infers(minimal, f))
              << db.ToString() << "\nF = " << f->ToString(db.vocabulary());
          if (!got) {
            ASSERT_FALSE(f->Eval(ce));
            ASSERT_TRUE(ModelSet(minimal).count(ce) > 0);
          }
          if (round == 1) {
            ASSERT_EQ(e.stats().sat_calls, calls_before) << db.ToString();
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dd
