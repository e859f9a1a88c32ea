#include "core/brute_force.h"

#include <algorithm>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "strat/priority.h"
#include "strat/stratifier.h"
#include "util/macros.h"

namespace dd {
namespace brute {

namespace {

// Runs `fn` over every interpretation of [0, n) as a bitmask.
template <typename Fn>
void ForEachInterpretation(int n, Fn fn) {
  DD_CHECK(n <= kMaxVars);
  const uint64_t count = uint64_t{1} << n;
  for (uint64_t bits = 0; bits < count; ++bits) {
    Interpretation i(n);
    for (int v = 0; v < n; ++v) {
      if ((bits >> v) & 1) i.Insert(static_cast<Var>(v));
    }
    fn(i);
  }
}

}  // namespace

std::vector<Interpretation> AllModels(const Database& db) {
  std::vector<Interpretation> out;
  ForEachInterpretation(db.num_vars(), [&](const Interpretation& i) {
    if (db.Satisfies(i)) out.push_back(i);
  });
  return out;
}

std::vector<Interpretation> MinimalModels(const Database& db) {
  std::vector<Interpretation> models = AllModels(db);
  std::vector<Interpretation> out;
  for (const auto& m : models) {
    bool minimal = true;
    for (const auto& n : models) {
      if (n.StrictSubsetOf(m)) {
        minimal = false;
        break;
      }
    }
    if (minimal) out.push_back(m);
  }
  return out;
}

std::vector<Interpretation> PqzMinimalModels(const Database& db,
                                             const Partition& pqz) {
  std::vector<Interpretation> models = AllModels(db);
  std::vector<Interpretation> out;
  for (const auto& m : models) {
    bool minimal = true;
    for (const auto& n : models) {
      // n <_{P;Z} m : equal on Q, strictly below on P.
      if (n.EqualOn(m, pqz.q) && n.SubsetOfOn(m, pqz.p) &&
          !m.SubsetOfOn(n, pqz.p)) {
        minimal = false;
        break;
      }
    }
    if (minimal) out.push_back(m);
  }
  return out;
}

std::vector<Interpretation> GcwaModels(const Database& db) {
  return CcwaModels(db, Partition::MinimizeAll(db.num_vars()));
}

std::vector<Interpretation> CcwaModels(const Database& db,
                                       const Partition& pqz) {
  std::vector<Interpretation> mins = PqzMinimalModels(db, pqz);
  Interpretation free(db.num_vars());
  for (const auto& m : mins) {
    for (Var v : m.TrueAtoms()) free.Insert(v);
  }
  std::vector<Interpretation> out;
  for (const auto& m : AllModels(db)) {
    bool ok = true;
    for (Var v = 0; v < db.num_vars(); ++v) {
      if (pqz.p.Contains(v) && !free.Contains(v) && m.Contains(v)) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(m);
  }
  return out;
}

std::vector<Interpretation> DdrModels(const Database& db) {
  DD_CHECK(!db.HasNegation());
  // T_DB↑ω by saturation over *all* derivable disjuncts (exact dedupe, no
  // subsumption), straight from the definition.
  std::set<std::vector<Var>> disjuncts;
  auto insert = [&](Interpretation d) {
    disjuncts.insert(d.TrueAtoms());
  };
  for (const Clause& c : db.clauses()) {
    if (c.is_integrity() || !c.pos_body().empty()) continue;
    insert(Interpretation::FromAtoms(db.num_vars(), c.heads()));
  }
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<std::vector<Var>> snapshot(disjuncts.begin(),
                                           disjuncts.end());
    for (const Clause& c : db.clauses()) {
      if (c.is_integrity() || c.pos_body().empty()) continue;
      // All ways of covering each body atom by a derivable disjunct.
      std::vector<size_t> pick(c.pos_body().size(), 0);
      std::vector<std::vector<const std::vector<Var>*>> covers(
          c.pos_body().size());
      bool feasible = true;
      for (size_t j = 0; j < c.pos_body().size(); ++j) {
        for (const auto& d : snapshot) {
          if (std::find(d.begin(), d.end(), c.pos_body()[j]) != d.end()) {
            covers[j].push_back(&d);
          }
        }
        if (covers[j].empty()) {
          feasible = false;
          break;
        }
      }
      if (!feasible) continue;
      // Odometer over the covers.
      for (;;) {
        Interpretation cand =
            Interpretation::FromAtoms(db.num_vars(), c.heads());
        for (size_t j = 0; j < covers.size(); ++j) {
          for (Var v : *covers[j][pick[j]]) {
            if (v != c.pos_body()[j]) cand.Insert(v);
          }
        }
        auto atoms = cand.TrueAtoms();
        if (disjuncts.insert(atoms).second) changed = true;
        size_t j = 0;
        for (; j < pick.size(); ++j) {
          if (++pick[j] < covers[j].size()) break;
          pick[j] = 0;
        }
        if (j == pick.size()) break;
      }
    }
  }
  Interpretation occurs(db.num_vars());
  for (const auto& d : disjuncts) {
    for (Var v : d) occurs.Insert(v);
  }
  std::vector<Interpretation> out;
  for (const auto& m : AllModels(db)) {
    bool ok = true;
    for (Var v : m.TrueAtoms()) {
      if (!occurs.Contains(v)) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(m);
  }
  return out;
}

std::vector<Interpretation> PossibleModels(const Database& db) {
  DD_CHECK(!db.HasNegation());
  std::vector<const Clause*> rules, constraints;
  for (const Clause& c : db.clauses()) {
    (c.is_integrity() ? constraints : rules).push_back(&c);
  }
  // A split picks a nonempty subset of heads for every rule; the possible
  // models are the least models of the splits that satisfy the
  // constraints. Only the picks of rules that FIRE while the least model
  // is built matter, so the search picks a rule's heads at the moment its
  // body becomes true (lowest-index firing rule first) and never revisits
  // a (model so far, rules picked) state. Following any split's own picks
  // reaches that split's least model, and every leaf is the least model
  // of the split that extends its picks arbitrarily, so the result is
  // exactly the set of split least models.
  std::set<Interpretation> found;
  std::set<std::pair<Interpretation, std::vector<bool>>> seen;
  std::function<void(const Interpretation&, std::vector<bool>&)> rec =
      [&](const Interpretation& lm, std::vector<bool>& picked) {
        if (!seen.emplace(lm, picked).second) return;
        size_t r = 0;
        for (; r < rules.size(); ++r) {
          if (picked[r]) continue;
          bool body_true = true;
          for (Var b : rules[r]->pos_body()) {
            if (!lm.Contains(b)) {
              body_true = false;
              break;
            }
          }
          if (body_true) break;
        }
        if (r == rules.size()) {
          // No unpicked rule fires: lm is closed, i.e. a least model.
          for (const Clause* ic : constraints) {
            if (!ic->SatisfiedBy(lm)) return;
          }
          found.insert(lm);
          return;
        }
        const auto& heads = rules[r]->heads();
        DD_CHECK(heads.size() <= 20);
        picked[r] = true;
        for (uint32_t mask = 1; mask < (1u << heads.size()); ++mask) {
          Interpretation next = lm;
          for (size_t h = 0; h < heads.size(); ++h) {
            if (mask & (1u << h)) next.Insert(heads[h]);
          }
          rec(next, picked);
        }
        picked[r] = false;
      };
  std::vector<bool> picked(rules.size(), false);
  rec(Interpretation(db.num_vars()), picked);
  return std::vector<Interpretation>(found.begin(), found.end());
}

std::vector<Interpretation> PwsModels(const Database& db) {
  std::vector<Interpretation> pms = PossibleModels(db);
  Interpretation occurs(db.num_vars());
  for (const auto& m : pms) {
    for (Var v : m.TrueAtoms()) occurs.Insert(v);
  }
  std::vector<Interpretation> out;
  for (const auto& m : AllModels(db)) {
    bool ok = true;
    for (Var v : m.TrueAtoms()) {
      if (!occurs.Contains(v)) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(m);
  }
  return out;
}

bool Preferable(const Database& db, const Interpretation& n,
                const Interpretation& m) {
  if (n == m) return false;
  PriorityRelation prio(db);
  for (Var x = 0; x < db.num_vars(); ++x) {
    if (!n.Contains(x) || m.Contains(x)) continue;  // x ∈ n∖m only
    bool dominated = false;
    for (Var y = 0; y < db.num_vars(); ++y) {
      if (m.Contains(y) && !n.Contains(y) && prio.Less(x, y)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) return false;
  }
  return true;
}

std::vector<Interpretation> PerfectModels(const Database& db) {
  std::vector<Interpretation> models = AllModels(db);
  PriorityRelation prio(db);
  std::vector<Interpretation> out;
  for (const auto& m : models) {
    bool perfect = true;
    for (const auto& n : models) {
      if (n == m) continue;
      bool pref = true;
      for (Var x = 0; x < db.num_vars() && pref; ++x) {
        if (!n.Contains(x) || m.Contains(x)) continue;
        bool dominated = false;
        for (Var y : prio.StrictlyAbove(x).TrueAtoms()) {
          if (m.Contains(y) && !n.Contains(y)) {
            dominated = true;
            break;
          }
        }
        if (!dominated) pref = false;
      }
      if (pref) {
        perfect = false;
        break;
      }
    }
    if (perfect) out.push_back(m);
  }
  return out;
}

std::vector<Interpretation> IcwaModels(const Database& db) {
  auto strat = Stratify(db);
  DD_CHECK(strat.ok());
  Database pos = db.Positivize();
  std::vector<Interpretation> out;
  std::vector<Interpretation> models = AllModels(pos);
  for (const auto& m : models) {
    bool ok = true;
    for (int i = 0; i < strat->num_strata && ok; ++i) {
      Partition p;
      p.p = Interpretation(db.num_vars());
      p.q = Interpretation(db.num_vars());
      p.z = Interpretation(db.num_vars());
      for (Var v = 0; v < db.num_vars(); ++v) {
        int lv = strat->atom_level[static_cast<size_t>(v)];
        if (lv == i) {
          p.p.Insert(v);
        } else if (lv < i) {
          p.q.Insert(v);
        } else {
          p.z.Insert(v);
        }
      }
      for (const auto& n : models) {
        if (n.EqualOn(m, p.q) && n.SubsetOfOn(m, p.p) &&
            !m.SubsetOfOn(n, p.p)) {
          ok = false;
          break;
        }
      }
    }
    if (ok) out.push_back(m);
  }
  return out;
}

std::vector<Interpretation> StableModels(const Database& db) {
  std::vector<Interpretation> out;
  ForEachInterpretation(db.num_vars(), [&](const Interpretation& m) {
    if (!db.Satisfies(m)) return;
    Database reduct = db.GlReduct(m);
    // m minimal model of the reduct?
    if (!reduct.Satisfies(m)) return;
    bool minimal = true;
    ForEachInterpretation(db.num_vars(), [&](const Interpretation& n) {
      if (minimal && n.StrictSubsetOf(m) && reduct.Satisfies(n)) {
        minimal = false;
      }
    });
    if (minimal) out.push_back(m);
  });
  return out;
}

namespace {

// Runs `fn` over every 3-valued interpretation.
template <typename Fn>
void ForEachPartial(int n, Fn fn) {
  DD_CHECK(n <= kMaxVars3);
  uint64_t count = 1;
  for (int i = 0; i < n; ++i) count *= 3;
  for (uint64_t code = 0; code < count; ++code) {
    PartialInterpretation i(n);
    uint64_t c = code;
    for (int v = 0; v < n; ++v) {
      i.SetValue(static_cast<Var>(v), static_cast<TruthValue>(c % 3));
      c /= 3;
    }
    fn(i);
  }
}

// 3-valued satisfaction of the reduct DB^I by J (negative literals take
// their constant value from I).
bool SatisfiesReduct3(const Database& db, const PartialInterpretation& i,
                      const PartialInterpretation& j) {
  for (const Clause& c : db.clauses()) {
    TruthValue body = TruthValue::kTrue;
    for (Var b : c.pos_body()) body = std::min(body, j.Value(b));
    for (Var neg : c.neg_body()) body = std::min(body, Negate(i.Value(neg)));
    TruthValue head = TruthValue::kFalse;
    for (Var h : c.heads()) head = std::max(head, j.Value(h));
    if (!(body <= head)) return false;
  }
  return true;
}

}  // namespace

std::vector<PartialInterpretation> PartialStableModels(const Database& db) {
  std::vector<PartialInterpretation> out;
  ForEachPartial(db.num_vars(), [&](const PartialInterpretation& i) {
    if (!SatisfiesReduct3(db, i, i)) return;
    bool minimal = true;
    ForEachPartial(db.num_vars(), [&](const PartialInterpretation& j) {
      if (minimal && j.TruthLt(i) && SatisfiesReduct3(db, i, j)) {
        minimal = false;
      }
    });
    if (minimal) out.push_back(i);
  });
  return out;
}

bool Infers(const std::vector<Interpretation>& models, const Formula& f) {
  for (const auto& m : models) {
    if (!f->Eval(m)) return false;
  }
  return true;
}

}  // namespace brute
}  // namespace dd
