#include "batch/model_bank_store.h"

#include "util/string_util.h"

namespace dd {
namespace batch {

std::string ModelBankStore::MakeKey(uint64_t module_fingerprint,
                                    SemanticsKind kind, int64_t cap) {
  return StrFormat("%016llx|%s|%lld",
                   static_cast<unsigned long long>(module_fingerprint),
                   SemanticsKindName(kind), static_cast<long long>(cap));
}

void ModelBankStore::SetEpoch(uint64_t fingerprint) {
  if (epoch_set_ && epoch_ == fingerprint) return;
  if (epoch_set_ && lru_.size() != 0) ++stats_.invalidations;
  lru_.Clear();
  epoch_ = fingerprint;
  epoch_set_ = true;
}

std::shared_ptr<const ModelBank> ModelBankStore::Lookup(const std::string& key,
                                                        int min_num_vars) {
  const std::shared_ptr<const ModelBank>* bank = lru_.Peek(key);
  if (bank == nullptr || (*bank)->num_vars < min_num_vars) {
    // A bank built before the vocabulary grew cannot evaluate a formula
    // mentioning a newer atom. The entry stays where it is in the LRU
    // order — it remains valid for queries over the atoms it does cover.
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return *lru_.Get(key);
}

void ModelBankStore::Insert(const std::string& key,
                            std::shared_ptr<const ModelBank> bank) {
  if (bank == nullptr || bank->models == nullptr || !bank->complete) {
    // A truncated bank may be missing models; trusting it could flip
    // answers, so it is never stored under any circumstances.
    ++stats_.truncated_rejected;
    return;
  }
  const auto put = lru_.Put(key, std::move(bank));
  if (put.inserted) ++stats_.insertions;
  stats_.evictions += put.evicted;
}

void ModelBankStore::Clear() { lru_.Clear(); }

void ModelBankStore::ForEach(
    const std::function<void(const std::string&, const ModelBank&)>& fn)
    const {
  lru_.ForEach([&](const std::string& key,
                   const std::shared_ptr<const ModelBank>& bank) {
    fn(key, *bank);
  });
}

}  // namespace batch
}  // namespace dd
