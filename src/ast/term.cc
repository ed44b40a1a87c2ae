#include "ast/term.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/span_hash.h"

namespace afp {

std::uint64_t TermTable::HashTerm(TermKind kind, SymbolId symbol,
                                  std::span<const TermId> args) {
  std::uint64_t h = HashMixWord(kSpanHashSeed, static_cast<std::uint64_t>(kind));
  h = HashMixWord(h, symbol);
  h = HashMixSpan(h, args);
  return HashAvalanche(h);
}

bool TermTable::TermEquals(TermId id, TermKind kind, SymbolId symbol,
                           std::span<const TermId> args) const {
  const Node& n = nodes_[id];
  if (n.kind != kind || n.symbol != symbol || n.args_len != args.size()) {
    return false;
  }
  return std::equal(args.begin(), args.end(), args_.data() + n.args_offset);
}

TermId TermTable::AppendNode(TermKind kind, SymbolId symbol,
                             std::span<const TermId> args) {
  Node node;
  node.kind = kind;
  node.symbol = symbol;
  node.args_offset = static_cast<std::uint32_t>(args_.size());
  node.args_len = static_cast<std::uint32_t>(args.size());
  node.ground = kind != TermKind::kVariable;
  node.depth = 0;
  for (TermId a : args) {
    node.ground = node.ground && nodes_[a].ground;
    node.depth = std::max(node.depth, nodes_[a].depth + 1);
  }
  args_.insert(args_.end(), args.begin(), args.end());
  TermId id = static_cast<TermId>(nodes_.size());
  nodes_.push_back(node);
  return id;
}

TermId TermTable::Intern(TermKind kind, SymbolId symbol,
                         std::span<const TermId> args) {
  const TermId next = static_cast<TermId>(nodes_.size());
  const TermId got = index_.FindOrInsert(
      HashTerm(kind, symbol, args), next, [&](std::uint32_t id) {
        return TermEquals(id, kind, symbol, args);
      });
  if (got == next) AppendNode(kind, symbol, args);
  return got;
}

TermId TermTable::Find(TermKind kind, SymbolId symbol,
                       std::span<const TermId> args) const {
  const std::uint32_t got =
      index_.Find(HashTerm(kind, symbol, args), [&](std::uint32_t id) {
        return TermEquals(id, kind, symbol, args);
      });
  return got == FlatIndex::kNotFound ? kInvalidTerm : got;
}

TermId TermTable::MakeConstant(SymbolId symbol) {
  return Intern(TermKind::kConstant, symbol, {});
}

TermId TermTable::MakeVariable(SymbolId symbol) {
  return Intern(TermKind::kVariable, symbol, {});
}

TermId TermTable::MakeCompound(SymbolId functor,
                               std::span<const TermId> args) {
  assert(!args.empty() && "zero-arity compounds must be constants");
  return Intern(TermKind::kCompound, functor, args);
}

TermId TermTable::FindConstant(SymbolId symbol) const {
  return Find(TermKind::kConstant, symbol, {});
}

TermId TermTable::FindCompound(SymbolId functor,
                               std::span<const TermId> args) const {
  return Find(TermKind::kCompound, functor, args);
}

std::string TermTable::ToString(TermId t, const Interner& symbols) const {
  std::string out;
  // The compounds being written, innermost last, each with the index of
  // its next argument.
  std::vector<std::pair<TermId, std::uint32_t>> open;
  auto write_symbol = [&](TermId u) {
    out += symbols.Name(nodes_[u].symbol);
    if (nodes_[u].kind == TermKind::kCompound) {
      out += '(';
      open.push_back({u, 0});
    }
  };
  write_symbol(t);
  while (!open.empty()) {
    const Node& n = nodes_[open.back().first];
    const std::uint32_t i = open.back().second++;
    if (i == n.args_len) {
      out += ')';
      open.pop_back();
      continue;
    }
    if (i > 0) out += ',';
    write_symbol(args_[n.args_offset + i]);
  }
  return out;
}

TermId TermTable::Substitute(
    TermId t, const std::unordered_map<SymbolId, TermId>& binding) {
  const Node& n = nodes_[t];
  switch (n.kind) {
    case TermKind::kConstant:
      return t;
    case TermKind::kVariable: {
      auto it = binding.find(n.symbol);
      return it == binding.end() ? t : it->second;
    }
    case TermKind::kCompound: {
      if (n.ground) return t;
      std::vector<TermId> new_args;
      auto as = args(t);
      new_args.reserve(as.size());
      bool changed = false;
      for (TermId a : as) {
        TermId na = Substitute(a, binding);
        changed = changed || na != a;
        new_args.push_back(na);
      }
      if (!changed) return t;
      return MakeCompound(n.symbol, new_args);
    }
  }
  return t;
}

void TermTable::CollectVariables(TermId t, std::vector<SymbolId>& out) const {
  const Node& n = nodes_[t];
  if (n.ground) return;
  if (n.kind == TermKind::kVariable) {
    out.push_back(n.symbol);
    return;
  }
  for (TermId a : args(t)) CollectVariables(a, out);
}

}  // namespace afp
