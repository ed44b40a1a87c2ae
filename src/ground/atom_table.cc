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

void AtomTable::Compact(std::span<const AtomId> remap, std::size_t kept) {
  // Ranks never exceed old ids, so each kept atom moves down (or stays)
  // over slots already read.
  std::uint32_t begin = 0;
  std::uint32_t w = 0;
  for (AtomId a = 0; a < preds_.size(); ++a) {
    const std::uint32_t end = arg_offsets_[a + 1];
    const AtomId to = remap[a];
    if (to != kInvalidAtom) {
      preds_[to] = preds_[a];
      for (std::uint32_t i = begin; i < end; ++i) {
        args_pool_[w++] = args_pool_[i];
      }
      arg_offsets_[to + 1] = w;
    }
    begin = end;
  }
  preds_.resize(kept);
  arg_offsets_.resize(kept + 1);
  args_pool_.resize(w);
  index_.Renumber(remap, kept);
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
