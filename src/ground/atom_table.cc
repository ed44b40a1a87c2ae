#include "ground/atom_table.h"

#include <algorithm>

#include "util/span_hash.h"

namespace afp {

std::uint64_t AtomTable::HashAtom(SymbolId pred,
                                  std::span<const TermId> args) {
  std::uint64_t h = HashMixWord(kSpanHashSeed, pred);
  h = HashMixSpan(h, args);
  return HashAvalanche(h);
}

bool AtomTable::AtomEquals(AtomId id, SymbolId pred,
                           std::span<const TermId> args) const {
  if (preds_[id] != pred) return false;
  const std::uint32_t off = arg_offsets_[id];
  if (arg_offsets_[id + 1] - off != args.size()) return false;
  return std::equal(args.begin(), args.end(), args_pool_.data() + off);
}

AtomId AtomTable::Append(SymbolId pred, std::span<const TermId> args) {
  AtomId id = static_cast<AtomId>(preds_.size());
  preds_.push_back(pred);
  args_pool_.insert(args_pool_.end(), args.begin(), args.end());
  arg_offsets_.push_back(static_cast<std::uint32_t>(args_pool_.size()));
  return id;
}

AtomId AtomTable::Intern(SymbolId pred, std::span<const TermId> args) {
  const AtomId next = static_cast<AtomId>(preds_.size());
  const AtomId got =
      index_.FindOrInsert(HashAtom(pred, args), next, [&](std::uint32_t id) {
        return AtomEquals(id, pred, args);
      });
  if (got == next) Append(pred, args);
  return got;
}

AtomId AtomTable::Find(SymbolId pred, std::span<const TermId> args) const {
  const std::uint32_t got =
      index_.Find(HashAtom(pred, args), [&](std::uint32_t id) {
        return AtomEquals(id, pred, args);
      });
  return got == FlatIndex::kNotFound ? kInvalidAtom : got;
}

void AtomTable::Reserve(std::size_t n, std::size_t num_args) {
  preds_.reserve(n);
  arg_offsets_.reserve(n + 1);
  args_pool_.reserve(num_args);
  index_.Reserve(n);
}

std::string AtomTable::ToString(AtomId a, const Interner& symbols,
                                const TermTable& terms) const {
  std::string out = symbols.Name(preds_[a]);
  auto as = args(a);
  if (!as.empty()) {
    out += '(';
    for (std::size_t i = 0; i < as.size(); ++i) {
      if (i > 0) out += ',';
      out += terms.ToString(as[i], symbols);
    }
    out += ')';
  }
  return out;
}

}  // namespace afp
