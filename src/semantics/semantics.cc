#include "semantics/semantics.h"

#include <utility>

#include "semantics/ccwa.h"
#include "semantics/cwa.h"
#include "semantics/ddr.h"
#include "semantics/dsm.h"
#include "semantics/ecwa_circ.h"
#include "semantics/egcwa.h"
#include "semantics/gcwa.h"
#include "semantics/icwa.h"
#include "semantics/pdsm.h"
#include "semantics/perf.h"
#include "semantics/pws.h"
#include "util/macros.h"

namespace dd {

const char* SemanticsKindName(SemanticsKind k) {
  switch (k) {
    case SemanticsKind::kCwa:
      return "CWA";
    case SemanticsKind::kGcwa:
      return "GCWA";
    case SemanticsKind::kEgcwa:
      return "EGCWA";
    case SemanticsKind::kCcwa:
      return "CCWA";
    case SemanticsKind::kEcwa:
      return "ECWA";
    case SemanticsKind::kDdr:
      return "DDR";
    case SemanticsKind::kPws:
      return "PWS";
    case SemanticsKind::kPerf:
      return "PERF";
    case SemanticsKind::kIcwa:
      return "ICWA";
    case SemanticsKind::kDsm:
      return "DSM";
    case SemanticsKind::kPdsm:
      return "PDSM";
  }
  DD_CHECK(false);
  return "?";
}

std::optional<SemanticsKind> SemanticsKindFromName(std::string_view name) {
  std::string lower(name);
  for (char& c : lower) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  static const std::pair<const char*, SemanticsKind> kMap[] = {
      {"cwa", SemanticsKind::kCwa},     {"gcwa", SemanticsKind::kGcwa},
      {"egcwa", SemanticsKind::kEgcwa}, {"ccwa", SemanticsKind::kCcwa},
      {"ecwa", SemanticsKind::kEcwa},   {"circ", SemanticsKind::kEcwa},
      {"ddr", SemanticsKind::kDdr},     {"wgcwa", SemanticsKind::kDdr},
      {"pws", SemanticsKind::kPws},     {"pms", SemanticsKind::kPws},
      {"perf", SemanticsKind::kPerf},   {"icwa", SemanticsKind::kIcwa},
      {"dsm", SemanticsKind::kDsm},     {"pdsm", SemanticsKind::kPdsm},
  };
  for (const auto& [n, kind] : kMap) {
    if (lower == n) return kind;
  }
  return std::nullopt;
}

Semantics::Semantics(const Database& db, const SemanticsOptions& opts,
                     std::shared_ptr<MinimalEngine> engine)
    : db_(db),
      opts_(opts),
      engine_(engine != nullptr ? std::move(engine)
                                : std::make_shared<MinimalEngine>(
                                      db, opts.minimal_options())) {}

void Semantics::SetBudget(std::shared_ptr<Budget> budget) {
  opts_.budget = budget;
  ForEachEngine([&](MinimalEngine* e) { e->SetBudget(budget); });
}

void Semantics::SetTrace(obs::TraceContext* trace) {
  ForEachEngine([&](MinimalEngine* e) { e->SetTrace(trace); });
}

oracle::SessionStats Semantics::session_stats() const {
  oracle::SessionStats out;
  ForEachEngine([&](MinimalEngine* e) { out.Add(e->session_stats()); });
  return out;
}

Result<bool> Semantics::InfersFormula(const Formula& f) {
  DD_ASSIGN_OR_RETURN(std::optional<Interpretation> ce,
                      FindCounterexample(f));
  return !ce.has_value();
}

Result<bool> Semantics::InfersLiteral(Lit l) {
  return InfersFormula(FormulaNode::MakeLit(l));
}

Result<std::optional<Interpretation>> Semantics::MinimalCounterexample(
    const Formula& f, const Partition& pqz) {
  Interpretation witness;
  bool entailed = engine_->MinimalEntails(f, pqz, &witness);
  if (engine_->interrupted()) return engine_->interrupt_status();
  if (entailed) return std::optional<Interpretation>();
  return std::optional<Interpretation>(std::move(witness));
}

Result<bool> Semantics::MinimalHasModel() {
  if (db_.IsPositive()) return true;
  bool has = engine_->HasModel();
  if (engine_->interrupted()) return engine_->interrupt_status();
  return has;
}

Result<bool> Semantics::InfersCredulously(const Formula& f) {
  // A model violating ~f is exactly a model satisfying f.
  DD_ASSIGN_OR_RETURN(std::optional<Interpretation> witness,
                      FindCounterexample(FormulaNode::MakeNot(f)));
  return witness.has_value();
}

Result<std::shared_ptr<const std::vector<Interpretation>>>
Semantics::SharedModels(int64_t cap) {
  DD_ASSIGN_OR_RETURN(std::vector<Interpretation> models, Models(cap));
  return std::shared_ptr<const std::vector<Interpretation>>(
      std::make_shared<std::vector<Interpretation>>(std::move(models)));
}

Result<std::optional<Interpretation>> Semantics::FindCounterexample(
    const Formula& f) {
  DD_ASSIGN_OR_RETURN(std::vector<Interpretation> models, Models());
  for (const Interpretation& m : models) {
    if (!f->Eval(m)) return std::optional<Interpretation>(m);
  }
  return std::optional<Interpretation>();
}

std::unique_ptr<Semantics> MakeSemantics(SemanticsKind kind,
                                         const Database& db,
                                         const SemanticsOptions& opts,
                                         std::shared_ptr<MinimalEngine> view,
                                         const Partition* partition) {
  auto pqz = [&] {
    return partition != nullptr ? *partition
                                : Partition::MinimizeAll(db.num_vars());
  };
  switch (kind) {
    case SemanticsKind::kCwa:
      return std::make_unique<CwaSemantics>(db, opts, std::move(view));
    case SemanticsKind::kGcwa:
      return std::make_unique<GcwaSemantics>(db, opts, std::move(view));
    case SemanticsKind::kEgcwa:
      return std::make_unique<EgcwaSemantics>(db, opts, std::move(view));
    case SemanticsKind::kCcwa:
      return std::make_unique<CcwaSemantics>(db, pqz(), opts,
                                             std::move(view));
    case SemanticsKind::kEcwa:
      return std::make_unique<EcwaSemantics>(db, pqz(), opts,
                                             std::move(view));
    case SemanticsKind::kDdr:
      return std::make_unique<DdrSemantics>(db, opts, std::move(view));
    case SemanticsKind::kPws:
      return std::make_unique<PwsSemantics>(db, opts, std::move(view));
    case SemanticsKind::kPerf:
      return std::make_unique<PerfSemantics>(db, opts, std::move(view));
    case SemanticsKind::kIcwa:
      return std::make_unique<IcwaSemantics>(db, opts, std::move(view));
    case SemanticsKind::kDsm:
      return std::make_unique<DsmSemantics>(db, opts, std::move(view));
    case SemanticsKind::kPdsm:
      // The stability engine runs on a selector skeleton, not on `db`.
      return std::make_unique<PdsmSemantics>(db, opts);
  }
  DD_CHECK(false);
  return nullptr;
}

}  // namespace dd
