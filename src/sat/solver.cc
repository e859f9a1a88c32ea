#include "sat/solver.h"

#include <algorithm>
#include <cmath>

#include "sat/fault.h"
#include "util/macros.h"

namespace dd {
namespace sat {

namespace {

// Luby restart sequence: 1,1,2,1,1,2,4,...
int64_t Luby(int64_t i) {
  // Find the finite subsequence that contains index i, then index into it.
  int64_t size = 1, seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i = i % size;
  }
  return int64_t{1} << seq;
}

constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
constexpr double kRescaleLimit = 1e100;
constexpr int64_t kRestartBase = 100;

}  // namespace

Solver::Solver() = default;

void Solver::EnsureVars(int n) {
  while (num_vars() < n) {
    assign_.push_back(kUndef);
    level_.push_back(0);
    reason_.push_back(-1);
    polarity_.push_back(default_polarity_);
    activity_.push_back(0.0);
    heap_pos_.push_back(-1);
    seen_.push_back(0);
    watches_.emplace_back();
    watches_.emplace_back();
    HeapInsert(num_vars() - 1);
  }
}

void Solver::AddClause(std::vector<Lit> lits) {
  AddClause(lits.data(), lits.size());
}

void Solver::AddClause(const Lit* lits, size_t n) {
  DD_CHECK(DecisionLevel() == 0);
  if (!ok_) return;
  // Copy into the reusable scratch buffer: bulk load paths (session base
  // loads, guarded-context clauses) then pay no per-clause allocation.
  add_buf_.assign(lits, lits + n);
  Var max_var = -1;
  for (Lit l : add_buf_) max_var = std::max(max_var, l.var());
  if (max_var >= 0) EnsureVars(max_var + 1);

  // Simplify against the level-0 assignment; drop tautologies/duplicates.
  std::sort(add_buf_.begin(), add_buf_.end());
  std::vector<Lit> out;
  Lit prev;
  for (Lit l : add_buf_) {
    if (l == prev) continue;
    if (prev.valid() && l == ~prev) return;  // tautology
    uint8_t v = ValueLit(l);
    if (v == kTrue) return;  // satisfied at level 0
    if (v == kFalse) {
      prev = l;
      continue;  // falsified at level 0: drop literal
    }
    out.push_back(l);
    prev = l;
  }

  if (out.empty()) {
    ok_ = false;
    return;
  }
  if (out.size() == 1) {
    Enqueue(out[0], -1);
    if (Propagate() != -1) ok_ = false;
    return;
  }
  ClauseData cd;
  cd.lits = std::move(out);
  cd.learnt = false;
  AttachClause(std::move(cd));
}

int Solver::AttachClause(ClauseData cd) {
  int ci = static_cast<int>(clauses_.size());
  DD_DCHECK(cd.lits.size() >= 2);
  watches_[static_cast<size_t>((~cd.lits[0]).code())].push_back(
      {ci, cd.lits[1]});
  watches_[static_cast<size_t>((~cd.lits[1]).code())].push_back(
      {ci, cd.lits[0]});
  clauses_.push_back(std::move(cd));
  return ci;
}

void Solver::Enqueue(Lit l, int reason) {
  DD_DCHECK(ValueLit(l) == kUndef);
  assign_[static_cast<size_t>(l.var())] = l.positive() ? kTrue : kFalse;
  level_[static_cast<size_t>(l.var())] = DecisionLevel();
  reason_[static_cast<size_t>(l.var())] = reason;
  trail_.push_back(l);
}

int Solver::Propagate() {
  int confl = -1;
  while (qhead_ < trail_.size()) {
    Lit p = trail_[qhead_++];  // p became true; clauses watching ~p wake up
    ++stats_.propagations;
    auto& ws = watches_[static_cast<size_t>(p.code())];
    size_t i = 0, j = 0;
    while (i < ws.size()) {
      Watcher w = ws[i];
      if (ValueLit(w.blocker) == kTrue) {
        ws[j++] = ws[i++];
        continue;
      }
      ClauseData& c = clauses_[static_cast<size_t>(w.clause)];
      auto& lits = c.lits;
      // Normalize so the false watched literal ~p sits at position 1.
      Lit false_lit = ~p;
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      DD_DCHECK(lits[1] == false_lit);
      ++i;

      Lit first = lits[0];
      if (first != w.blocker && ValueLit(first) == kTrue) {
        ws[j++] = {w.clause, first};
        continue;
      }

      // Look for a new literal to watch.
      bool moved = false;
      for (size_t k = 2; k < lits.size(); ++k) {
        if (ValueLit(lits[k]) != kFalse) {
          std::swap(lits[1], lits[k]);
          watches_[static_cast<size_t>((~lits[1]).code())].push_back(
              {w.clause, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;

      // Clause is unit or conflicting.
      ws[j++] = {w.clause, first};
      if (ValueLit(first) == kFalse) {
        confl = w.clause;
        qhead_ = trail_.size();
        // Copy the remaining watchers before bailing out.
        while (i < ws.size()) ws[j++] = ws[i++];
        break;
      }
      Enqueue(first, w.clause);
    }
    ws.resize(j);
    if (confl != -1) break;
  }
  return confl;
}

void Solver::BumpVar(Var v) {
  activity_[static_cast<size_t>(v)] += var_inc_;
  if (activity_[static_cast<size_t>(v)] > kRescaleLimit) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[static_cast<size_t>(v)] >= 0)
    HeapSiftUp(heap_pos_[static_cast<size_t>(v)]);
}

void Solver::BumpClause(int ci) {
  ClauseData& c = clauses_[static_cast<size_t>(ci)];
  c.activity += cla_inc_;
  if (c.activity > kRescaleLimit) {
    for (auto& cl : clauses_)
      if (cl.learnt) cl.activity *= 1e-100;
    cla_inc_ *= 1e-100;
  }
}

void Solver::DecayActivities() {
  var_inc_ /= kVarDecay;
  cla_inc_ /= kClauseDecay;
}

void Solver::Analyze(int confl, std::vector<Lit>* learnt, int* out_btlevel) {
  learnt->clear();
  learnt->push_back(Lit());  // placeholder for the asserting literal

  int path_count = 0;
  Lit p;  // invalid
  int index = static_cast<int>(trail_.size()) - 1;

  do {
    DD_DCHECK(confl != -1);
    ClauseData& c = clauses_[static_cast<size_t>(confl)];
    if (c.learnt) BumpClause(confl);
    // Skip lits[0] on non-first iterations: it is the literal p itself.
    for (size_t k = p.valid() ? 1 : 0; k < c.lits.size(); ++k) {
      Lit q = c.lits[k];
      Var v = q.var();
      if (!seen_[static_cast<size_t>(v)] && level_[static_cast<size_t>(v)] > 0) {
        seen_[static_cast<size_t>(v)] = 1;
        BumpVar(v);
        if (level_[static_cast<size_t>(v)] >= DecisionLevel()) {
          ++path_count;
        } else {
          learnt->push_back(q);
        }
      }
    }
    // Select the next literal on the trail to resolve on.
    while (!seen_[static_cast<size_t>(trail_[static_cast<size_t>(index)].var())])
      --index;
    p = trail_[static_cast<size_t>(index)];
    --index;
    confl = reason_[static_cast<size_t>(p.var())];
    seen_[static_cast<size_t>(p.var())] = 0;
    --path_count;
  } while (path_count > 0);
  (*learnt)[0] = ~p;

  // Local clause minimization (MiniSat's "deep" variant).
  analyze_toclear_.assign(learnt->begin(), learnt->end());
  for (Lit l : *learnt) seen_[static_cast<size_t>(l.var())] = 1;
  uint32_t abstract_levels = 0;
  for (size_t k = 1; k < learnt->size(); ++k) {
    abstract_levels |=
        1u << (level_[static_cast<size_t>((*learnt)[k].var())] & 31);
  }
  size_t out = 1;
  for (size_t k = 1; k < learnt->size(); ++k) {
    Lit l = (*learnt)[k];
    if (reason_[static_cast<size_t>(l.var())] == -1 ||
        !LitRedundant(l, abstract_levels)) {
      (*learnt)[out++] = l;
    }
  }
  learnt->resize(out);
  for (Lit l : analyze_toclear_) seen_[static_cast<size_t>(l.var())] = 0;

  // Backtrack level: highest level among the non-asserting literals.
  if (learnt->size() == 1) {
    *out_btlevel = 0;
  } else {
    size_t max_i = 1;
    for (size_t k = 2; k < learnt->size(); ++k) {
      if (level_[static_cast<size_t>((*learnt)[k].var())] >
          level_[static_cast<size_t>((*learnt)[max_i].var())])
        max_i = k;
    }
    std::swap((*learnt)[1], (*learnt)[max_i]);
    *out_btlevel = level_[static_cast<size_t>((*learnt)[1].var())];
  }
}

bool Solver::LitRedundant(Lit l, uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  size_t top = analyze_toclear_.size();
  while (!analyze_stack_.empty()) {
    Lit q = analyze_stack_.back();
    analyze_stack_.pop_back();
    int r = reason_[static_cast<size_t>(q.var())];
    DD_DCHECK(r != -1);
    ClauseData& c = clauses_[static_cast<size_t>(r)];
    for (size_t k = 1; k < c.lits.size(); ++k) {
      Lit p = c.lits[k];
      Var v = p.var();
      if (seen_[static_cast<size_t>(v)] || level_[static_cast<size_t>(v)] == 0)
        continue;
      if (reason_[static_cast<size_t>(v)] == -1 ||
          (1u << (level_[static_cast<size_t>(v)] & 31) & abstract_levels) == 0) {
        // Not removable: undo the marks added by this check.
        for (size_t j = top; j < analyze_toclear_.size(); ++j)
          seen_[static_cast<size_t>(analyze_toclear_[j].var())] = 0;
        analyze_toclear_.resize(top);
        return false;
      }
      seen_[static_cast<size_t>(v)] = 1;
      analyze_stack_.push_back(p);
      analyze_toclear_.push_back(p);
    }
  }
  return true;
}

void Solver::AnalyzeFinal(Lit p) {
  // Computes the subset of assumptions responsible for forcing ~p.
  conflict_.clear();
  conflict_.push_back(p);
  if (DecisionLevel() == 0) return;
  seen_[static_cast<size_t>(p.var())] = 1;
  for (int i = static_cast<int>(trail_.size()) - 1;
       i >= trail_lim_[0]; --i) {
    Var v = trail_[static_cast<size_t>(i)].var();
    if (!seen_[static_cast<size_t>(v)]) continue;
    int r = reason_[static_cast<size_t>(v)];
    if (r == -1) {
      // A decision inside the assumption prefix: it is an assumption.
      conflict_.push_back(trail_[static_cast<size_t>(i)]);
    } else {
      ClauseData& c = clauses_[static_cast<size_t>(r)];
      for (size_t k = 1; k < c.lits.size(); ++k) {
        Var u = c.lits[k].var();
        if (level_[static_cast<size_t>(u)] > 0)
          seen_[static_cast<size_t>(u)] = 1;
      }
    }
    seen_[static_cast<size_t>(v)] = 0;
  }
  seen_[static_cast<size_t>(p.var())] = 0;
}

void Solver::CancelUntil(int level) {
  if (DecisionLevel() <= level) return;
  for (int i = static_cast<int>(trail_.size()) - 1;
       i >= trail_lim_[static_cast<size_t>(level)]; --i) {
    Var v = trail_[static_cast<size_t>(i)].var();
    polarity_[static_cast<size_t>(v)] = assign_[static_cast<size_t>(v)] == kTrue;
    assign_[static_cast<size_t>(v)] = kUndef;
    reason_[static_cast<size_t>(v)] = -1;
    if (heap_pos_[static_cast<size_t>(v)] < 0) HeapInsert(v);
  }
  trail_.resize(static_cast<size_t>(trail_lim_[static_cast<size_t>(level)]));
  trail_lim_.resize(static_cast<size_t>(level));
  qhead_ = trail_.size();
}

Lit Solver::PickBranchLit() {
  while (!HeapEmpty()) {
    Var v = HeapPop();
    if (assign_[static_cast<size_t>(v)] == kUndef) {
      return Lit::Make(v, polarity_[static_cast<size_t>(v)]);
    }
  }
  return Lit();
}

void Solver::ReduceDb() {
  // Keep the most active half of the learnt clauses (and all locked ones).
  std::vector<int> learnts;
  for (int ci = 0; ci < static_cast<int>(clauses_.size()); ++ci) {
    const ClauseData& c = clauses_[static_cast<size_t>(ci)];
    if (!c.learnt || c.removed) continue;
    Var v0 = c.lits[0].var();
    bool locked = assign_[static_cast<size_t>(v0)] != kUndef &&
                  reason_[static_cast<size_t>(v0)] == ci;
    if (!locked && c.lits.size() > 2) learnts.push_back(ci);
  }
  std::sort(learnts.begin(), learnts.end(), [this](int a, int b) {
    return clauses_[static_cast<size_t>(a)].activity <
           clauses_[static_cast<size_t>(b)].activity;
  });
  size_t to_remove = learnts.size() / 2;
  for (size_t i = 0; i < to_remove; ++i) {
    clauses_[static_cast<size_t>(learnts[i])].removed = true;
    ++stats_.removed_clauses;
    --num_learnts_;
  }
  if (to_remove > 0) ReattachAll();
}

void Solver::DetachAll() {
  for (auto& w : watches_) w.clear();
}

void Solver::ReattachAll() {
  DetachAll();
  for (int ci = 0; ci < static_cast<int>(clauses_.size()); ++ci) {
    ClauseData& c = clauses_[static_cast<size_t>(ci)];
    if (c.removed) continue;
    watches_[static_cast<size_t>((~c.lits[0]).code())].push_back(
        {ci, c.lits[1]});
    watches_[static_cast<size_t>((~c.lits[1]).code())].push_back(
        {ci, c.lits[0]});
  }
}

SolveResult Solver::Solve(const std::vector<Lit>& assumptions) {
  ++stats_.solve_calls;
  conflict_.clear();
  model_.clear();
  // Fault injection first, so the global solve numbering is uniform across
  // trivially-decided and fully-searched calls alike.
  if (FaultInjector::Global().OnSolve()) return SolveResult::kUnknown;
  if (budget_ != nullptr &&
      (!budget_->ConsumeOracleCall() || budget_->Exhausted())) {
    return SolveResult::kUnknown;
  }
  if (!ok_) return SolveResult::kUnsat;
  // One growth step for the largest assumption variable. seen_ is sized
  // by EnsureVars and left all-zero by Analyze/AnalyzeFinal/LitRedundant,
  // so a call costs nothing proportional to the variable count.
  Var max_var = -1;
  for (Lit a : assumptions) max_var = std::max(max_var, a.var());
  if (max_var >= 0) EnsureVars(max_var + 1);

  CancelUntil(0);
  if (Propagate() != -1) {
    ok_ = false;
    return SolveResult::kUnsat;
  }

  int64_t conflicts_left = conflict_budget_;
  if (max_learnts_ <= 0)
    max_learnts_ = std::max<double>(1000.0, clauses_.size() / 3.0);

  int64_t curr_restarts = 0;
  int64_t budget_ticks = 0;  // decision/propagation rounds since entry
  std::vector<Lit> learnt;

  for (;;) {
    int64_t restart_limit = kRestartBase * Luby(curr_restarts);
    int64_t conflicts_this_restart = 0;

    // ---- search loop ----
    for (;;) {
      // Deadline poll on propagation/decision ticks: catches long satisfiable
      // searches that rarely conflict. Every 1024 rounds keeps the check off
      // the hot path.
      if (budget_ != nullptr && ((++budget_ticks & 1023) == 0) &&
          budget_->Exhausted()) {
        CancelUntil(0);
        return SolveResult::kUnknown;
      }
      int confl = Propagate();
      if (confl != -1) {
        ++stats_.conflicts;
        ++conflicts_this_restart;
        if (conflicts_left > 0) --conflicts_left;
        // Global budget: one unit per conflict, deadline polled every 64.
        if (budget_ != nullptr &&
            (!budget_->ConsumeConflicts(1) ||
             ((stats_.conflicts & 63) == 0 && budget_->Exhausted()))) {
          CancelUntil(0);
          return SolveResult::kUnknown;
        }
        if (DecisionLevel() == 0) {
          ok_ = false;
          CancelUntil(0);
          return SolveResult::kUnsat;
        }
        int bt = 0;
        Analyze(confl, &learnt, &bt);
        CancelUntil(bt);
        if (learnt.size() == 1) {
          Enqueue(learnt[0], -1);
        } else {
          ClauseData cd;
          cd.lits = learnt;
          cd.learnt = true;
          cd.activity = cla_inc_;
          int ci = AttachClause(std::move(cd));
          ++stats_.learnt_clauses;
          ++num_learnts_;
          Enqueue(learnt[0], ci);
        }
        DecayActivities();
        if (conflict_budget_ >= 0 && conflicts_left == 0) {
          CancelUntil(0);
          return SolveResult::kUnknown;
        }
        continue;
      }

      if (conflicts_this_restart >= restart_limit) {
        ++stats_.restarts;
        ++curr_restarts;
        CancelUntil(0);
        break;  // restart
      }

      if (num_learnts_ > static_cast<int64_t>(max_learnts_) +
                             static_cast<int64_t>(trail_.size())) {
        ReduceDb();
        max_learnts_ *= 1.1;
      }

      // Extend with the next assumption, or decide.
      Lit next;
      while (DecisionLevel() < static_cast<int>(assumptions.size())) {
        Lit p = assumptions[static_cast<size_t>(DecisionLevel())];
        uint8_t v = ValueLit(p);
        if (v == kTrue) {
          NewDecisionLevel();  // dummy level keeps indices aligned
        } else if (v == kFalse) {
          AnalyzeFinal(p);
          CancelUntil(0);
          return SolveResult::kUnsat;
        } else {
          next = p;
          break;
        }
      }
      if (!next.valid()) {
        ++stats_.decisions;
        next = PickBranchLit();
        if (!next.valid()) {
          // All variables assigned: a model.
          model_.assign(assign_.begin(), assign_.end());
          CancelUntil(0);
          return SolveResult::kSat;
        }
      }
      NewDecisionLevel();
      Enqueue(next, -1);
    }
  }
}

Interpretation Solver::Model(int n) const {
  Interpretation out(n);
  for (Var v = 0; v < n && v < static_cast<int>(model_.size()); ++v) {
    if (model_[static_cast<size_t>(v)] == kTrue) out.Insert(v);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Activity heap.
// ---------------------------------------------------------------------------

void Solver::HeapInsert(Var v) {
  DD_DCHECK(heap_pos_[static_cast<size_t>(v)] < 0);
  heap_pos_[static_cast<size_t>(v)] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  HeapSiftUp(static_cast<int>(heap_.size()) - 1);
}

Var Solver::HeapPop() {
  DD_DCHECK(!heap_.empty());
  Var top = heap_[0];
  heap_pos_[static_cast<size_t>(top)] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[static_cast<size_t>(heap_[0])] = 0;
    HeapSiftDown(0);
  }
  return top;
}

void Solver::HeapSiftUp(int i) {
  Var v = heap_[static_cast<size_t>(i)];
  double a = activity_[static_cast<size_t>(v)];
  while (i > 0) {
    int parent = (i - 1) / 2;
    Var pv = heap_[static_cast<size_t>(parent)];
    if (activity_[static_cast<size_t>(pv)] >= a) break;
    heap_[static_cast<size_t>(i)] = pv;
    heap_pos_[static_cast<size_t>(pv)] = i;
    i = parent;
  }
  heap_[static_cast<size_t>(i)] = v;
  heap_pos_[static_cast<size_t>(v)] = i;
}

void Solver::HeapSiftDown(int i) {
  Var v = heap_[static_cast<size_t>(i)];
  double a = activity_[static_cast<size_t>(v)];
  int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        activity_[static_cast<size_t>(heap_[static_cast<size_t>(child + 1)])] >
            activity_[static_cast<size_t>(heap_[static_cast<size_t>(child)])])
      ++child;
    Var cv = heap_[static_cast<size_t>(child)];
    if (a >= activity_[static_cast<size_t>(cv)]) break;
    heap_[static_cast<size_t>(i)] = cv;
    heap_pos_[static_cast<size_t>(cv)] = i;
    i = child;
  }
  heap_[static_cast<size_t>(i)] = v;
  heap_pos_[static_cast<size_t>(v)] = i;
}

void Solver::HeapUpdate(Var v) {
  int p = heap_pos_[static_cast<size_t>(v)];
  if (p >= 0) {
    HeapSiftUp(p);
    HeapSiftDown(heap_pos_[static_cast<size_t>(v)]);
  }
}

}  // namespace sat
}  // namespace dd
