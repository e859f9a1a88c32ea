#include "semantics/ecwa_circ.h"

#include "util/macros.h"
#include "util/string_util.h"

namespace dd {

EcwaSemantics::EcwaSemantics(const Database& db, Partition pqz,
                             const SemanticsOptions& opts,
                             std::shared_ptr<MinimalEngine> view)
    : Semantics(db, opts, std::move(view)), pqz_(std::move(pqz)) {
  DD_CHECK(pqz_.Validate().ok());
  DD_CHECK(pqz_.num_vars() == db.num_vars());
}

Result<std::optional<Interpretation>> EcwaSemantics::FindCounterexample(
    const Formula& f) {
  return MinimalCounterexample(f, pqz_);
}

Result<bool> EcwaSemantics::HasModel() { return MinimalHasModel(); }

Result<std::vector<Interpretation>> EcwaSemantics::Models(int64_t cap) {
  if (cap < 0) cap = opts_.max_models;
  std::vector<Interpretation> out;
  bool overflow = false;
  engine_->EnumerateAllMinimalModels(pqz_, cap + 1,
                                     [&](const Interpretation& m) {
                                       if (static_cast<int64_t>(out.size()) >=
                                           cap) {
                                         overflow = true;
                                         return false;
                                       }
                                       out.push_back(m);
                                       return true;
                                     });
  if (engine_->interrupted()) {
    // Anytime payload: every collected model IS <P;Z>-minimal; the
    // enumeration is merely truncated by the budget.
    partial_models_ = std::move(out);
    return engine_->interrupt_status();
  }
  if (overflow) {
    partial_models_ = std::move(out);
    return Status::ResourceExhausted(StrFormat(
        "more than %lld %s models", static_cast<long long>(cap),
        SemanticsKindName(kind())));
  }
  return out;
}

Result<std::shared_ptr<const std::vector<Interpretation>>>
EcwaSemantics::SharedModels(int64_t cap) {
  // With Z ≠ ∅ a projection stands for several Z-completions: copy.
  if (pqz_.z.TrueCount() > 0) return Semantics::SharedModels(cap);
  if (cap < 0) cap = opts_.max_models;
  // Drive the (memoized) projection stream to exhaustion — or to cap+1,
  // which proves overflow — WITHOUT collecting: on success the stream
  // itself is the model set and we alias it.
  int64_t seen = 0;
  bool overflow = false;
  engine_->EnumerateMinimalProjections(pqz_, cap + 1,
                                       [&](const Interpretation&) {
                                         if (seen >= cap) {
                                           overflow = true;
                                           return false;
                                         }
                                         ++seen;
                                         return true;
                                       });
  if (engine_->interrupted()) return engine_->interrupt_status();
  if (overflow) {
    return Status::ResourceExhausted(StrFormat(
        "more than %lld %s models", static_cast<long long>(cap),
        SemanticsKindName(kind())));
  }
  std::shared_ptr<const std::vector<Interpretation>> shared =
      engine_->SharedExhaustedProjections(pqz_);
  if (shared != nullptr) return shared;
  // Reached only when the stream is not exhausted or was evicted from the
  // engine's projection store; copy via the default.
  return Semantics::SharedModels(cap);
}

bool EcwaSemantics::IsCircumscriptionModel(const Interpretation& m) {
  return engine_->IsMinimal(m, pqz_);
}

std::vector<bool> EcwaSemantics::AreCircumscriptionModels(
    const std::vector<Interpretation>& candidates) {
  return engine_->AreMinimal(candidates, pqz_, opts_.num_threads);
}

}  // namespace dd
