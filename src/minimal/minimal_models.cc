#include "minimal/minimal_models.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "minimal/hcf.h"
#include "oracle/sat_session.h"
#include "sat/solver.h"
#include "strat/dependency_graph.h"
#include "util/macros.h"
#include "util/thread_pool.h"

namespace dd {

namespace {

using sat::SolveResult;

// The clause excluding the "region" of a minimal projection: models M''
// with M''∩P ⊇ p* and M''∩Q = q*. Empty iff the region is the whole model
// space, in which case the caller must stop instead of asserting it.
std::vector<Lit> RegionBlockClause(const Interpretation& proj,
                                   const Partition& pqz) {
  std::vector<Lit> block;
  for (Var v : proj.TrueAtoms()) {
    if (pqz.p.Contains(v)) block.push_back(Lit::Neg(v));
  }
  for (Var v = 0; v < pqz.num_vars(); ++v) {
    if (!pqz.q.Contains(v)) continue;
    block.push_back(proj.Contains(v) ? Lit::Neg(v) : Lit::Pos(v));
  }
  return block;
}

// Fixes the (P,Q)-projection of `m` as unit assumptions (Z left free).
std::vector<Lit> ProjectionAssumptions(const Interpretation& m,
                                       const Partition& pqz) {
  std::vector<Lit> out;
  for (Var v = 0; v < pqz.num_vars(); ++v) {
    if (pqz.p.Contains(v) || pqz.q.Contains(v)) {
      out.push_back(Lit::Make(v, m.Contains(v)));
    }
  }
  return out;
}

}  // namespace

MinimalEngine::MinimalEngine(const Database& db, const MinimalOptions& opts)
    : db_(db), opts_(opts) {
  cache_.SetCapacity(opts_.oracle_cache_cap);
  proj_store_.SetCapacity(opts_.projection_stream_cap);
}

oracle::SatSession* MinimalEngine::session() {
  if (!session_) {
    session_ = std::make_unique<oracle::SatSession>(db_);
    session_->SetBudget(opts_.budget);
  }
  return session_.get();
}

void MinimalEngine::SetBudget(std::shared_ptr<Budget> budget) {
  opts_.budget = std::move(budget);
  if (session_) session_->SetBudget(opts_.budget);
  ClearInterrupt();
}

void MinimalEngine::MarkInterrupted() {
  if (interrupted_) return;
  interrupted_ = true;
  Status s = opts_.budget ? opts_.budget->ToStatus() : Status::OK();
  interrupt_status_ =
      s.ok() ? Status::ResourceExhausted(
                   "NP oracle returned unknown (conflict budget or fault)")
             : s;
}

oracle::SessionStats MinimalEngine::session_stats() const {
  oracle::SessionStats out;
  if (session_) out = session_->stats();
  out.cache_hits += cache_.hits() + memo_hits_;
  out.cache_misses += cache_.misses();
  out.cache_evictions += cache_.evictions() + proj_store_.evictions();
  return out;
}

// ---------------------------------------------------------------------------
// OpScope: one "minimal"-layer span per outermost public operation.
// ---------------------------------------------------------------------------

MinimalEngine::OpScope::OpScope(MinimalEngine* e, const char* name) : e_(e) {
  if (e_->opts_.trace == nullptr) return;
  counted_ = true;
  if (e_->op_depth_++ > 0) return;  // nested op: fold into the outer span
  active_ = true;
  span_ = e_->opts_.trace->OpenSpan(name, "minimal");
  before_ = e_->stats_;
  sess_before_ = e_->session_stats();
}

MinimalEngine::OpScope::~OpScope() {
  if (!counted_) return;
  --e_->op_depth_;
  if (!active_) return;
  obs::TraceContext* t = e_->opts_.trace;
  const MinimalStats& s = e_->stats_;
  t->AddCounter(span_, "oracle_calls", s.sat_calls - before_.sat_calls);
  t->AddCounter(span_, "minimizations",
                s.minimizations - before_.minimizations);
  t->AddCounter(span_, "cegar_iterations",
                s.cegar_iterations - before_.cegar_iterations);
  t->AddCounter(span_, "models_enumerated",
                s.models_enumerated - before_.models_enumerated);
  if (e_->interrupted_) t->SetAttr(span_, "interrupted", "true");
  // Session activity attributable to this operation, as an "oracle"-layer
  // child span (parent inference: span_ is still open here). Only emitted
  // when something actually happened, so memo-only operations stay lean.
  const oracle::SessionStats after = e_->session_stats();
  const int64_t solves = after.solves - sess_before_.solves;
  const int64_t opened = after.contexts_opened - sess_before_.contexts_opened;
  const int64_t hits = after.cache_hits - sess_before_.cache_hits;
  const int64_t misses = after.cache_misses - sess_before_.cache_misses;
  const int64_t replayed =
      after.projections_replayed - sess_before_.projections_replayed;
  if (solves != 0 || opened != 0 || hits != 0 || misses != 0 ||
      replayed != 0) {
    int child = t->OpenSpan("oracle.session", "oracle");
    t->AddCounter(child, "solves", solves);
    t->AddCounter(child, "contexts_opened", opened);
    t->AddCounter(child, "cache_hits", hits);
    t->AddCounter(child, "cache_misses", misses);
    t->AddCounter(child, "projections_replayed", replayed);
    t->CloseSpan(child);
  }
  t->CloseSpan(span_);
}

// ---------------------------------------------------------------------------
// Public operations.
// ---------------------------------------------------------------------------

bool MinimalEngine::HasModel() {
  if (interrupted_) return false;
  OpScope op(this, "minimal.has_model");
  if (has_model_.has_value()) {
    ++memo_hits_;
    return *has_model_;
  }
  oracle::SatSession* s = session();
  SolveResult r = s->Solve();
  ++stats_.sat_calls;
  if (r == SolveResult::kUnknown) {
    // No memoization from an interrupted call: the next (re-budgeted)
    // HasModel must actually solve.
    MarkInterrupted();
    return false;
  }
  has_model_ = (r == SolveResult::kSat);
  if (*has_model_) found_model_ = s->Model(db_.num_vars());
  return *has_model_;
}

std::optional<Interpretation> MinimalEngine::FindModel() {
  if (interrupted_) return std::nullopt;
  OpScope op(this, "minimal.find_model");
  if (!HasModel()) return std::nullopt;
  if (interrupted_) return std::nullopt;
  return found_model_;
}

bool MinimalEngine::HcfEligible(const Partition& pqz) {
  if (!opts_.hcf_minimality) return false;
  // The founded <=> minimal equivalence is stated for subset-minimality
  // over ALL atoms; a custom <P;Q;Z> partition steps aside to the oracle.
  if (pqz.q.TrueCount() != 0 || pqz.z.TrueCount() != 0) return false;
  if (!hcf_applicable_) hcf_applicable_ = hcf::HcfApplicable(db_);
  return *hcf_applicable_;
}

const std::vector<int>& MinimalEngine::PosSccIds() {
  if (!pos_scc_) {
    DependencyGraph positive(db_, DepGraphOptions{/*link_heads=*/false,
                                                  /*include_negation=*/false});
    pos_scc_ = positive.SccIds();
  }
  return *pos_scc_;
}

std::optional<bool> MinimalEngine::TryHcfIsMinimal(const Interpretation& m,
                                                   const Partition& pqz) {
  if (!HcfEligible(pqz)) return std::nullopt;
  if (!IsModel(m)) return false;
  ++stats_.hcf_checks;
  hcf::FoundedResult f = hcf::CheckFounded(db_, m);
  if (opts_.hcf_certificates) {
    if (f.founded) {
      opts_.hcf_certificates->push_back(
          hcf::MakeMinimalCertificate(db_, m, f));
    } else {
      opts_.hcf_certificates->push_back(hcf::MakeNonMinimalCertificate(
          db_, m, hcf::ShrinkOnce(db_, m, f.unfounded, PosSccIds())));
    }
  }
  return f.founded;
}

std::optional<Interpretation> MinimalEngine::TryHcfMinimize(
    const Interpretation& m, const Partition& pqz) {
  if (!HcfEligible(pqz)) return std::nullopt;
  DD_CHECK(IsModel(m));
  ++stats_.minimizations;
  Interpretation cur = m;
  hcf::FoundedResult f;
  for (;;) {
    ++stats_.hcf_checks;
    f = hcf::CheckFounded(db_, cur);
    if (f.founded) break;
    cur = hcf::ShrinkOnce(db_, cur, f.unfounded, PosSccIds());
  }
  if (opts_.hcf_certificates) {
    opts_.hcf_certificates->push_back(
        hcf::MakeMinimalCertificate(db_, cur, f));
  }
  return cur;
}

bool MinimalEngine::IsMinimal(const Interpretation& m, const Partition& pqz) {
  if (interrupted_) return false;
  OpScope op(this, "minimal.is_minimal");
  if (std::optional<bool> h = TryHcfIsMinimal(m, pqz)) return *h;
  if (!IsModel(m)) return false;
  const Interpretation masked = oracle::MinimalityCache::MaskPQ(m, pqz);
  if (std::optional<bool> v = cache_.LookupVerdict(pqz, masked)) return *v;
  // Search a model strictly below m in the <P;Z> preorder, as one
  // activation-guarded context on the persistent session: Q-values and
  // absent P-atoms ride as assumptions, the "strictly smaller" clause is
  // the only guarded clause.
  oracle::SatSession* s = session();
  oracle::SatSession::Context ctx(s);
  std::vector<Lit> pins;
  std::vector<Lit> smaller;
  for (Var v = 0; v < db_.num_vars(); ++v) {
    if (pqz.q.Contains(v)) {
      pins.push_back(Lit::Make(v, m.Contains(v)));
    } else if (pqz.p.Contains(v)) {
      if (m.Contains(v)) {
        smaller.push_back(Lit::Neg(v));
      } else {
        pins.push_back(Lit::Neg(v));
      }
    }
  }
  bool minimal;
  if (smaller.empty()) {
    // m's P-part is empty: nothing below it.
    minimal = true;
  } else {
    ctx.AddClause(std::move(smaller));
    SolveResult r = ctx.Solve(pins);
    ++stats_.sat_calls;
    if (r == SolveResult::kUnknown) {
      // Interrupted: the verdict is unknowable — and must NOT be cached.
      MarkInterrupted();
      return false;
    }
    minimal = (r == SolveResult::kUnsat);
  }
  cache_.StoreVerdict(pqz, masked, minimal);
  return minimal;
}

Interpretation MinimalEngine::Minimize(const Interpretation& m,
                                       const Partition& pqz) {
  if (interrupted_) return m;
  OpScope op(this, "minimal.minimize");
  if (std::optional<Interpretation> h = TryHcfMinimize(m, pqz)) return *h;
  DD_CHECK(IsModel(m));
  ++stats_.minimizations;
  const Interpretation masked = oracle::MinimalityCache::MaskPQ(m, pqz);
  if (std::optional<Interpretation> c = cache_.LookupMinimized(pqz, masked)) {
    // The cached certificate was minimized under exactly these P/Q pins, so
    // it is a <P;Z>-minimal model below every Z-completion of the key.
    return *c;
  }
  // A projection already known minimal is its own minimization.
  if (cache_.LookupVerdict(pqz, masked) == std::optional<bool>(true)) return m;
  oracle::SatSession* s = session();
  oracle::SatSession::Context ctx(s);
  // Incremental descent: Q-values and absent P-atoms are assumption pins
  // (extended as atoms leave the candidate). Each round's "strictly
  // smaller" clause lists the P-atoms still true, and under the pins those
  // sets shrink strictly from round to round, so the newest clause implies
  // every earlier one: all rounds share the context's own activation.
  std::vector<Lit> pins;
  for (Var v = 0; v < db_.num_vars(); ++v) {
    if (pqz.q.Contains(v)) pins.push_back(Lit::Make(v, m.Contains(v)));
    if (pqz.p.Contains(v) && !m.Contains(v)) pins.push_back(Lit::Neg(v));
  }
  Interpretation cur = m;
  for (;;) {
    std::vector<Var> true_p;
    for (Var v : cur.TrueAtoms()) {
      if (pqz.p.Contains(v)) true_p.push_back(v);
    }
    if (true_p.empty()) break;  // nothing left to remove
    std::vector<Lit> clause;
    clause.reserve(true_p.size());
    for (Var v : true_p) clause.push_back(Lit::Neg(v));
    ctx.AddClause(std::move(clause));
    SolveResult r = ctx.Solve(pins);
    ++stats_.sat_calls;
    if (r == SolveResult::kUnknown) {
      // Interrupted mid-descent: cur may NOT be minimal. Return it as a
      // placeholder but skip every cache store below — caching it as
      // minimal would poison later (un-budgeted) queries.
      MarkInterrupted();
      return cur;
    }
    if (r != SolveResult::kSat) break;  // cur is minimal
    Interpretation found = s->Model(db_.num_vars());
    // Pin the freshly removed P-atoms false for all later rounds.
    for (Var v : true_p) {
      if (!found.Contains(v)) pins.push_back(Lit::Neg(v));
    }
    cur = found;
  }
  cache_.StoreMinimized(pqz, masked, cur);
  // Minimization doubles as a minimality check: cur is minimal, and m was
  // minimal iff the descent never moved off m's projection.
  const Interpretation cur_masked = oracle::MinimalityCache::MaskPQ(cur, pqz);
  cache_.StoreVerdict(pqz, cur_masked, true);
  if (!(cur_masked == masked)) cache_.StoreVerdict(pqz, masked, false);
  return cur;
}

std::vector<bool> MinimalEngine::AreMinimal(
    const std::vector<Interpretation>& candidates, const Partition& pqz,
    int threads) {
  const int64_t n = static_cast<int64_t>(candidates.size());
  std::vector<bool> out(candidates.size());
  if (n == 0 || interrupted_) return out;
  OpScope op(this, "minimal.are_minimal");
  // The chunk layout is a function of n alone — never of the worker count —
  // so the per-chunk engines (and therefore the merged statistics) are
  // identical for every `threads` value.
  const int64_t chunks = std::min<int64_t>(n, 16);
  std::vector<uint8_t> verdicts(candidates.size(), 0);
  std::vector<MinimalStats> chunk_stats(static_cast<size_t>(chunks));
  std::vector<Status> chunk_interrupts(static_cast<size_t>(chunks));
  // Cooperative cancellation: chunk engines share the query budget, so the
  // first chunk to exhaust it cancels the token and sibling slots stop
  // claiming work.
  const CancelToken* cancel =
      opts_.budget ? opts_.budget->cancel_token().get() : nullptr;
  // Chunk engines run untraced: their counters are folded into this
  // engine's stats (and thus into this operation's span) in chunk order,
  // which keeps the span tree bit-identical across thread counts.
  MinimalOptions chunk_opts = opts_;
  chunk_opts.trace = nullptr;
  // The certificate sink is a plain vector: chunk engines run detached so
  // parallel verdicts never race on it.
  chunk_opts.hcf_certificates = nullptr;
  ParallelFor(chunks, threads, cancel, [&](int64_t c) {
    const int64_t lo = c * n / chunks;
    const int64_t hi = (c + 1) * n / chunks;
    MinimalEngine local(db_, chunk_opts);
    for (int64_t i = lo; i < hi; ++i) {
      verdicts[static_cast<size_t>(i)] =
          local.IsMinimal(candidates[static_cast<size_t>(i)], pqz) ? 1 : 0;
      if (local.interrupted()) break;
    }
    if (local.interrupted()) {
      chunk_interrupts[static_cast<size_t>(c)] = local.interrupt_status();
    }
    chunk_stats[static_cast<size_t>(c)] = local.stats();
  });
  for (const MinimalStats& cs : chunk_stats) stats_.Add(cs);
  // Fold chunk interrupts in chunk order (first one wins); a cancelled run
  // also leaves unclaimed chunks, which is fine — the whole verdict vector
  // is meaningless once interrupted() is set.
  for (const Status& ci : chunk_interrupts) {
    if (!ci.ok()) {
      if (!interrupted_) {
        interrupted_ = true;
        interrupt_status_ = ci;
      }
      break;
    }
  }
  if (!interrupted_ && cancel != nullptr && cancel->cancelled()) {
    MarkInterrupted();
  }
  for (size_t i = 0; i < candidates.size(); ++i) out[i] = verdicts[i] != 0;
  return out;
}

int MinimalEngine::EnumerateMinimalProjections(
    const Partition& pqz, int64_t cap,
    const std::function<bool(const Interpretation&)>& cb) {
  if (interrupted_) return 0;
  OpScope op(this, "minimal.enumerate_projections");
  oracle::SatSession* s = session();
  oracle::ProjectionStream* stream = proj_store_.GetStream(pqz);
  int emitted = 0;
  // Replay the memoized prefix: zero SAT calls.
  for (const Interpretation& proj : *stream->projections) {
    if (cap >= 0 && emitted >= cap) return emitted;
    ++emitted;
    ++stats_.models_enumerated;
    ++s->stats().projections_replayed;
    if (!cb(proj)) return emitted;
  }
  if (stream->exhausted) return emitted;
  // Resume discovery on the stream's persistent context, whose guarded
  // region blocks are exactly the projections replayed above.
  if (!stream->ctx) {
    stream->ctx = std::make_unique<oracle::SatSession::Context>(s);
  }
  for (;;) {
    if (cap >= 0 && emitted >= cap) break;
    SolveResult r = stream->ctx->Solve();
    ++stats_.sat_calls;
    if (r == SolveResult::kUnknown) {
      // Interrupted, NOT exhausted: leave the stream resumable — a retry
      // with a fresh budget replays the memoized prefix (zero SAT calls)
      // and continues discovery exactly where this run stopped.
      MarkInterrupted();
      break;
    }
    if (r != SolveResult::kSat) {
      stream->exhausted = true;
      break;
    }
    Interpretation m = s->Model(db_.num_vars());
    Interpretation mm = Minimize(m, pqz);
    if (interrupted_) {
      // Minimization was cut short: mm may not be a minimal projection.
      // Do not record it in the stream or block its region.
      break;
    }
    // Record the projection and its block BEFORE consulting the consumer,
    // so the stream stays consistent even on early exit.
    stream->projections->push_back(mm);
    ++s->stats().projections_discovered;
    std::vector<Lit> block = RegionBlockClause(mm, pqz);
    if (block.empty()) {
      stream->exhausted = true;  // region = everything
    } else {
      stream->ctx->AddClause(std::move(block));
    }
    ++emitted;
    ++stats_.models_enumerated;
    if (!cb(mm)) break;
    if (stream->exhausted) break;
  }
  return emitted;
}

std::shared_ptr<const std::vector<Interpretation>>
MinimalEngine::SharedExhaustedProjections(const Partition& pqz) {
  oracle::ProjectionStream* stream = proj_store_.FindStream(pqz);
  if (stream == nullptr || !stream->exhausted) return nullptr;
  return stream->projections;
}

int MinimalEngine::EnumerateAllMinimalModels(
    const Partition& pqz, int64_t cap,
    const std::function<bool(const Interpretation&)>& cb) {
  // With Z = ∅ a minimal projection is a whole model and its only
  // completion: emit the projections themselves, no re-solve per model.
  if (pqz.z.TrueCount() == 0) return EnumerateMinimalProjections(pqz, cap, cb);
  if (interrupted_) return 0;
  OpScope op(this, "minimal.enumerate_all_models");
  // Outer loop over (memoized) minimal projections; inner loop over
  // Z-completions in a per-projection guarded context.
  oracle::SatSession* s = session();
  int emitted = 0;
  bool stop = false;
  EnumerateMinimalProjections(
      pqz, /*cap=*/-1, [&](const Interpretation& proj) {
        oracle::SatSession::Context ctx(s);
        const std::vector<Lit> fixed = ProjectionAssumptions(proj, pqz);
        for (;;) {
          if (cap >= 0 && emitted >= cap) {
            stop = true;
            break;
          }
          SolveResult r = ctx.Solve(fixed);
          ++stats_.sat_calls;
          if (r == SolveResult::kUnknown) {
            MarkInterrupted();
            stop = true;
            break;
          }
          if (r != SolveResult::kSat) break;
          Interpretation m = s->Model(db_.num_vars());
          ++emitted;
          ++stats_.models_enumerated;
          if (!cb(m)) {
            stop = true;
            break;
          }
          // Exclude exactly this Z-completion (nonempty: Z ≠ ∅ here).
          std::vector<Lit> diff;
          for (Var v = 0; v < db_.num_vars(); ++v) {
            if (pqz.z.Contains(v)) {
              diff.push_back(m.Contains(v) ? Lit::Neg(v) : Lit::Pos(v));
            }
          }
          ctx.AddClause(std::move(diff));
        }
        return !stop;
      });
  return emitted;
}

bool MinimalEngine::MinimalEntails(const Formula& f, const Partition& pqz,
                                   Interpretation* counterexample) {
  if (interrupted_) return true;
  OpScope op(this, "minimal.entails");
  // The verdict depends only on the database, the partition and F, so
  // every semantics borrowing this engine shares one memo entry.
  const std::string key = oracle::MinimalityCache::FormulaKey(f);
  std::optional<oracle::MinimalityCache::Entailment> e =
      cache_.LookupEntailment(pqz, key);
  if (!e.has_value()) {
    e.emplace();
    e->entailed = SearchMinimalCounterexample(f, pqz, &e->counterexample);
    // An interrupted search left a placeholder: memoize nothing.
    if (interrupted_) return true;
    cache_.StoreEntailment(pqz, key, *e);
  }
  if (!e->entailed && counterexample != nullptr) {
    *counterexample = e->counterexample;
  }
  return e->entailed;
}

bool MinimalEngine::SearchMinimalCounterexample(
    const Formula& f, const Partition& pqz, Interpretation* counterexample) {
  // Counterexample search: a <P;Z>-minimal model of DB violating F. The
  // Tseitin encoding, the ¬F unit and the region blocks all live in one
  // guarded context and vanish together when the query ends.
  oracle::SatSession* s = session();
  oracle::SatSession::Context ctx(s);
  Var next = s->next_var();
  std::vector<std::vector<Lit>> fcnf;
  Lit fl = TseitinEncode(f, &next, &fcnf);
  s->ReserveVars(next);
  for (auto& cl : fcnf) ctx.AddClause(std::move(cl));
  ctx.AddUnit(~fl);  // assert ~F

  for (;;) {
    ++stats_.cegar_iterations;
    SolveResult r = ctx.Solve();
    ++stats_.sat_calls;
    if (r == SolveResult::kUnknown) {
      MarkInterrupted();
      return true;  // placeholder; caller must check interrupted()
    }
    if (r != SolveResult::kSat) return true;  // no candidate remains
    Interpretation m = s->Model(db_.num_vars());
    // One descent doubles as the minimality check: m is minimal iff its
    // (P,Q)-projection did not move.
    Interpretation mm = Minimize(m, pqz);
    if (interrupted_) return true;
    if (oracle::MinimalityCache::MaskPQ(mm, pqz) ==
        oracle::MinimalityCache::MaskPQ(m, pqz)) {
      *counterexample = m;
      return false;  // m is a minimal model with ~F
    }
    // Does any model sharing mm's minimal projection violate F? Such a
    // model is itself minimal (minimality depends only on the projection).
    // The probe reuses this very context: fixing the (P,Q)-projection to
    // mm's values satisfies every asserted region block outright (mm was
    // minimized from a candidate that avoided them), so the blocks cannot
    // constrain the probe and the answer matches a block-free solver.
    SolveResult pr = ctx.Solve(ProjectionAssumptions(mm, pqz));
    ++stats_.sat_calls;
    if (pr == SolveResult::kUnknown) {
      // Without the probe's verdict we may not exclude this region: doing
      // so could hide a real counterexample and turn "Unknown" into a
      // wrong "entailed".
      MarkInterrupted();
      return true;
    }
    if (pr == SolveResult::kSat) {
      *counterexample = s->Model(db_.num_vars());
      return false;
    }
    // No minimal counterexample in this region: exclude the region.
    std::vector<Lit> block = RegionBlockClause(mm, pqz);
    if (block.empty()) return true;
    ctx.AddClause(std::move(block));
  }
}

bool MinimalEngine::ExistsMinimalModelWith(Lit lit, const Partition& pqz,
                                           Interpretation* witness) {
  // A minimal model with `lit` is a minimal counterexample to ¬lit; the
  // literal Tseitin-encodes to itself, so the oracle calls are those of a
  // dedicated search.
  const bool entailed =
      MinimalEntails(FormulaNode::MakeLit(~lit), pqz, witness);
  return !interrupted_ && !entailed;
}

Interpretation MinimalEngine::FreeAtoms(const Partition& pqz) {
  OpScope op(this, "minimal.free_atoms");
  const int n = db_.num_vars();
  Interpretation free(n);
  Interpretation determined(n);
  // Atoms never mentioned in a head cannot be true in a minimal model when
  // they are minimized; quick syntactic pre-pass.
  Interpretation in_heads(n);
  for (const Clause& c : db_.clauses()) {
    for (Var v : c.heads()) in_heads.Insert(v);
  }
  for (Var v = 0; v < n; ++v) {
    if (!pqz.p.Contains(v)) {
      determined.Insert(v);  // only P-atoms are classified
      continue;
    }
    if (!in_heads.Contains(v) && db_.IsDeductive()) {
      // In a DDDB, minimized atoms can only be supported through heads.
      determined.Insert(v);
    }
  }
  // Fast path (opts_.free_atoms_enum_cap): free P-atoms are exactly the
  // union of the minimal projections' P-parts, so when the (memoized)
  // stream is small one complete enumeration classifies every atom at
  // once — this is the fixed setup cost of GCWA/CCWA and of batch model
  // banks over them. A capped enumeration still settles the atoms it saw
  // before falling back to the per-atom witness loop.
  if (opts_.free_atoms_enum_cap > 0 && !interrupted_) {
    const int64_t cap = opts_.free_atoms_enum_cap;
    Interpretation seen(n);
    int got = EnumerateMinimalProjections(
        pqz, cap, [&](const Interpretation& m) {
          for (Var v : m.TrueAtoms()) {
            if (pqz.p.Contains(v)) seen.Insert(v);
          }
          return true;
        });
    if (interrupted_) return free;  // partial; caller checks interrupted()
    for (Var v : seen.TrueAtoms()) {
      free.Insert(v);
      determined.Insert(v);
    }
    // Fewer than cap projections means the enumeration was complete:
    // every undetermined P-atom is in no minimal model, hence negated.
    if (got < cap) return free;
  }
  for (Var v = 0; v < n; ++v) {
    if (determined.Contains(v)) continue;
    if (interrupted_) return free;  // partial; caller checks interrupted()
    Interpretation witness;
    bool is_free = ExistsMinimalModelWith(Lit::Pos(v), pqz, &witness);
    if (interrupted_) return free;
    determined.Insert(v);
    if (is_free) {
      // The witness settles all of its true P-atoms at once.
      for (Var w : witness.TrueAtoms()) {
        if (pqz.p.Contains(w)) {
          free.Insert(w);
          determined.Insert(w);
        }
      }
      free.Insert(v);
    }
  }
  return free;
}

// ---------------------------------------------------------------------------
// Query: one oracle call "DB plus a few extras" on the engine's session.
// ---------------------------------------------------------------------------

MinimalEngine::Query::Query(MinimalEngine* engine)
    : engine_(engine), ctx_(engine->session()) {}

void MinimalEngine::Query::AddClause(std::vector<Lit> lits) {
  ctx_.AddClause(std::move(lits));
}

void MinimalEngine::Query::AddUnit(Lit l) {
  // Units ride as assumptions: no clause garbage, and FailedAssumptions
  // keeps working for callers that inspect it.
  units_.push_back(l);
}

Var MinimalEngine::Query::NextVar() const {
  return engine_->session_->next_var();
}

void MinimalEngine::Query::ReserveVars(Var next) {
  engine_->session_->ReserveVars(next);
}

sat::SolveResult MinimalEngine::Query::Solve(
    const std::vector<Lit>& extra_assumptions) {
  ++engine_->stats_.sat_calls;
  assumptions_ = units_;
  assumptions_.insert(assumptions_.end(), extra_assumptions.begin(),
                      extra_assumptions.end());
  sat::SolveResult r = ctx_.Solve(assumptions_);
  // Auto-latch: semantics call sites test `== kSat` / `== kUnsat` and then
  // consult engine()->interrupted(); this keeps a kUnknown from ever being
  // silently folded into either branch.
  if (r == sat::SolveResult::kUnknown) engine_->MarkInterrupted();
  return r;
}

Interpretation MinimalEngine::Query::Model(int n) const {
  return engine_->session_->Model(n);
}

}  // namespace dd
