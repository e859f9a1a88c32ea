#include <memory>

#include "core/brute_force.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "semantics/ecwa_circ.h"
#include "semantics/egcwa.h"
#include "semantics/gcwa.h"
#include "tests/test_util.h"

namespace dd {
namespace {

using testing::Db;
using testing::F;
using testing::ModelSet;

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
  return p;
}

TEST(Egcwa, ModelsAreExactlyTheMinimalModels) {
  Rng rng(111);
  for (int iter = 0; iter < 80; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 4 + static_cast<int>(rng.Below(4));
    cfg.num_clauses = 4 + static_cast<int>(rng.Below(9));
    cfg.integrity_fraction = 0.15;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    EgcwaSemantics egcwa(db);
    auto got = egcwa.Models();
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(ModelSet(*got), ModelSet(brute::MinimalModels(db)))
        << db.ToString();
  }
}

TEST(Egcwa, DistinguishedFromGcwaOnFormulas) {
  // EGCWA infers the integrity clause ~a | ~b from {a|b}, GCWA does not
  // (the paper's Section 3.3 motivation for EGCWA).
  Database db = Db("a | b.");
  EgcwaSemantics egcwa(db);
  GcwaSemantics gcwa(db);
  Formula f = F(&db, "~a | ~b");
  EXPECT_TRUE(*egcwa.InfersFormula(f));
  EXPECT_FALSE(*gcwa.InfersFormula(f));
}

TEST(Egcwa, FormulaInferenceMatchesBruteForce) {
  Rng rng(222);
  for (int iter = 0; iter < 120; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 4 + static_cast<int>(rng.Below(4));
    cfg.num_clauses = 4 + static_cast<int>(rng.Below(9));
    cfg.integrity_fraction = 0.15;
    cfg.negation_fraction = 0.2;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    EgcwaSemantics egcwa(db);
    Formula f = testing::RandomFormula(&rng, db.num_vars(), 3);
    auto got = egcwa.InfersFormula(f);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, brute::Infers(brute::MinimalModels(db), f))
        << db.ToString();
  }
}

TEST(Egcwa, ModelExistence) {
  EXPECT_TRUE(*EgcwaSemantics(Db("a | b.")).HasModel());
  EXPECT_TRUE(*EgcwaSemantics(Db("a | b. :- a.")).HasModel());
  EXPECT_FALSE(*EgcwaSemantics(Db("a. :- a.")).HasModel());
}

TEST(Egcwa, EntailedNegativeClausesOfPlainDisjunction) {
  Database db = Db("a | b.");
  EgcwaSemantics egcwa(db);
  auto clauses = egcwa.EntailedNegativeClauses(2);
  ASSERT_TRUE(clauses.ok());
  // Only {a,b}: no minimal model contains both; each singleton IS a
  // minimal model.
  ASSERT_EQ(clauses->size(), 1u);
  EXPECT_EQ((*clauses)[0].size(), 2u);
}

TEST(Egcwa, EntailedSingletonsAreGcwaNegations) {
  Rng rng(777);
  for (int iter = 0; iter < 40; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 5;
    cfg.num_clauses = 6;
    cfg.integrity_fraction = 0.1;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    EgcwaSemantics egcwa(db);
    auto clauses = egcwa.EntailedNegativeClauses(1);
    ASSERT_TRUE(clauses.ok());
    Interpretation from_clauses(db.num_vars());
    for (const auto& s : *clauses) from_clauses.Insert(s[0]);
    // GCWA's negation set = atoms false in all minimal models.
    Interpretation expected(db.num_vars());
    auto mins = brute::MinimalModels(db);
    for (Var v = 0; v < db.num_vars(); ++v) {
      bool in_some = false;
      for (const auto& m : mins) in_some |= m.Contains(v);
      if (!in_some && !mins.empty()) expected.Insert(v);
      if (mins.empty()) expected.Insert(v);
    }
    ASSERT_EQ(from_clauses, expected) << db.ToString();
  }
}

TEST(Egcwa, EntailedClausesAreMinimalAndEntailed) {
  Rng rng(888);
  for (int iter = 0; iter < 30; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 5;
    cfg.num_clauses = 5;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    EgcwaSemantics egcwa(db);
    auto clauses = egcwa.EntailedNegativeClauses(3);
    ASSERT_TRUE(clauses.ok());
    auto mins = brute::MinimalModels(db);
    for (const auto& s : *clauses) {
      // Entailed: no minimal model contains all of s.
      for (const auto& m : mins) {
        bool all = true;
        for (Var v : s) all &= m.Contains(v);
        ASSERT_FALSE(all) << db.ToString();
      }
      // Minimal: dropping any atom yields a covered set.
      for (size_t drop = 0; drop < s.size(); ++drop) {
        bool covered = false;
        for (const auto& m : mins) {
          bool inside = true;
          for (size_t i = 0; i < s.size(); ++i) {
            if (i == drop) continue;
            inside &= m.Contains(s[i]);
          }
          if (inside) {
            covered = true;
            break;
          }
        }
        if (s.size() > 1) {
          ASSERT_TRUE(covered) << db.ToString();
        }
      }
    }
  }
}

TEST(Ecwa, ModelsMatchBruteForceUnderRandomPartitions) {
  Rng rng(333);
  for (int iter = 0; iter < 80; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 4 + static_cast<int>(rng.Below(3));
    cfg.num_clauses = 4 + static_cast<int>(rng.Below(8));
    cfg.integrity_fraction = 0.15;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    Partition pqz = RandomPartition(&rng, db.num_vars());
    EcwaSemantics ecwa(db, pqz);
    auto got = ecwa.Models();
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(ModelSet(*got), ModelSet(brute::PqzMinimalModels(db, pqz)))
        << db.ToString();
  }
}

TEST(Ecwa, CircumscriptionViewAgrees) {
  // ECWA models == models of Circ(DB;P;Z): every model is circumscription-
  // minimal exactly when it is in the ECWA model set.
  Rng rng(444);
  for (int iter = 0; iter < 60; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 4 + static_cast<int>(rng.Below(3));
    cfg.num_clauses = 3 + static_cast<int>(rng.Below(8));
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    Partition pqz = RandomPartition(&rng, db.num_vars());
    EcwaSemantics ecwa(db, pqz);
    auto ecwa_models = ModelSet(brute::PqzMinimalModels(db, pqz));
    for (const auto& m : brute::AllModels(db)) {
      ASSERT_EQ(ecwa.IsCircumscriptionModel(m), ecwa_models.count(m) > 0)
          << db.ToString();
    }
  }
}

TEST(Ecwa, SharedModelsAliasTheProjectionStreamWithoutZ) {
  // Over <V;∅;∅> (ECWA there IS EGCWA) the model set is the engine's
  // memoized projection stream: SharedModels hands out that very vector.
  // With Z ≠ ∅ a projection stands for several Z-completions, so the
  // handle is a copy of Models().
  Rng rng(555);
  for (int iter = 0; iter < 40; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 5;
    cfg.num_clauses = 6;
    cfg.integrity_fraction = 0.15;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    const Partition all = Partition::MinimizeAll(db.num_vars());
    for (bool as_egcwa : {false, true}) {
      auto engine = std::make_shared<MinimalEngine>(db);
      std::unique_ptr<EcwaSemantics> s =
          as_egcwa ? std::make_unique<EgcwaSemantics>(db, SemanticsOptions{},
                                                      engine)
                   : std::make_unique<EcwaSemantics>(db, all,
                                                     SemanticsOptions{},
                                                     engine);
      auto shared = s->SharedModels();
      ASSERT_TRUE(shared.ok()) << shared.status().ToString();
      std::shared_ptr<const std::vector<Interpretation>> stream =
          engine->SharedExhaustedProjections(all);
      ASSERT_NE(stream, nullptr) << db.ToString();
      EXPECT_EQ(shared->get(), stream.get()) << db.ToString();
      EXPECT_EQ(ModelSet(**shared), ModelSet(brute::MinimalModels(db)))
          << db.ToString();
    }

    Partition pqz = RandomPartition(&rng, db.num_vars());
    pqz.p.Erase(0);
    pqz.q.Erase(0);
    pqz.z.Insert(0);
    auto engine = std::make_shared<MinimalEngine>(db);
    EcwaSemantics ecwa(db, pqz, SemanticsOptions{}, engine);
    auto shared = ecwa.SharedModels();
    ASSERT_TRUE(shared.ok()) << shared.status().ToString();
    EXPECT_NE(shared->get(), engine->SharedExhaustedProjections(pqz).get());
    EXPECT_EQ(ModelSet(**shared), ModelSet(brute::PqzMinimalModels(db, pqz)))
        << db.ToString();
  }
}

TEST(Ecwa, FixedAtomsAreNotMinimized) {
  // P = {a}, Q = {b}, Z = {}: b keeps both values; a is minimized per
  // Q-slice.
  Database db = Db("a :- b.");
  auto pqz = Partition::Make(db.num_vars(), {db.vocabulary().Find("a")},
                             {db.vocabulary().Find("b")}, {});
  ASSERT_TRUE(pqz.ok());
  EcwaSemantics ecwa(db, *pqz);
  auto models = ecwa.Models();
  ASSERT_TRUE(models.ok());
  // Slices: b=0 -> minimal a=0; b=1 -> a forced true.
  EXPECT_EQ(models->size(), 2u);
  EXPECT_FALSE(*ecwa.InfersFormula(F(&db, "~b")));
  EXPECT_TRUE(*ecwa.InfersFormula(F(&db, "b -> a")));
  EXPECT_TRUE(*ecwa.InfersFormula(F(&db, "a -> b")));  // a minimized
}

TEST(Ecwa, FloatingAtomsVary) {
  // P = {a}, Z = {b}: minimize a with b floating. DB: a | b.
  Database db = Db("a | b.");
  auto pqz = Partition::Make(db.num_vars(), {db.vocabulary().Find("a")}, {},
                             {db.vocabulary().Find("b")});
  ASSERT_TRUE(pqz.ok());
  EcwaSemantics ecwa(db, *pqz);
  // Minimal: a=0 possible with b=1 -> ECWA |= ~a... and b stays free in
  // the Z-completions: models are {b} only? a=0 requires b=1. So single
  // model {b}.
  auto models = ecwa.Models();
  ASSERT_TRUE(models.ok());
  ASSERT_EQ(models->size(), 1u);
  EXPECT_TRUE(*ecwa.InfersFormula(F(&db, "~a & b")));
}

}  // namespace
}  // namespace dd
