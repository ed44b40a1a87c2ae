#include "core/interpretation.h"

#include <algorithm>
#include <set>

#include "parser/parser.h"

namespace afp {

const char* TruthValueName(TruthValue v) {
  switch (v) {
    case TruthValue::kTrue:
      return "true";
    case TruthValue::kFalse:
      return "false";
    case TruthValue::kUndefined:
      return "undef";
  }
  return "?";
}

bool PartialModel::IsTotal() const {
  return num_true() + num_false() == true_.universe_size() && IsConsistent();
}

TruthValue BodyValue(const GroundProgram& gp, const GroundRule& r,
                     const PartialModel& m) {
  bool all_true = true;
  for (AtomId a : gp.pos(r)) {
    TruthValue v = m.Value(a);
    if (v == TruthValue::kFalse) return TruthValue::kFalse;
    if (v != TruthValue::kTrue) all_true = false;
  }
  for (AtomId a : gp.neg(r)) {
    TruthValue v = m.Value(a);
    if (v == TruthValue::kTrue) return TruthValue::kFalse;  // not a is false
    if (v != TruthValue::kFalse) all_true = false;
  }
  return all_true ? TruthValue::kTrue : TruthValue::kUndefined;
}

bool Satisfies(const GroundProgram& gp, const PartialModel& m) {
  for (std::size_t i = 0; i < gp.num_rules(); ++i) {
    const GroundRule& r = gp.rule(i);
    TruthValue head = m.Value(r.head);
    if (head == TruthValue::kTrue) continue;
    TruthValue body = BodyValue(gp, r, m);
    if (body == TruthValue::kFalse) continue;
    if (head == TruthValue::kUndefined && body == TruthValue::kUndefined) {
      continue;
    }
    return false;
  }
  return true;
}

StatusOr<PartialModel> ExtendToTotalModel(const GroundProgram& gp,
                                          const PartialModel& m) {
  if (!Satisfies(gp, m)) {
    return Status::FailedPrecondition(
        "the given interpretation is not a partial model of the program");
  }
  Bitset new_true = Bitset::ComplementOf(m.false_atoms());
  PartialModel total(std::move(new_true), m.false_atoms());
  if (!Satisfies(gp, total)) {
    return Status::Internal(
        "all-true extension failed to satisfy the program (bug)");
  }
  return total;
}

namespace {

/// `{a, b, ...}`: the sorted names of the atoms in `set`, leaving out
/// those whose predicate is in `edb` (null: none is left out).
std::string NameSet(const GroundProgram& gp, const Bitset& set,
                    const std::set<SymbolId>* edb) {
  std::vector<std::string> names;
  set.ForEach([&](std::size_t a) {
    AtomId id = static_cast<AtomId>(a);
    if (edb != nullptr && edb->count(gp.atoms().predicate(id))) return;
    names.push_back(gp.AtomName(id));
  });
  std::sort(names.begin(), names.end());
  std::string out = "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += names[i];
  }
  out += "}";
  return out;
}

}  // namespace

std::string AtomSetToString(const GroundProgram& gp, const Bitset& set,
                            bool include_edb) {
  if (include_edb) return NameSet(gp, set, nullptr);
  const std::set<SymbolId> edb = gp.source().EdbPredicates();
  return NameSet(gp, set, &edb);
}

std::string ModelToString(const GroundProgram& gp, const PartialModel& m,
                          const ModelPrintOptions& opts) {
  Bitset undef = Bitset::ComplementOf(m.true_atoms());
  undef.Subtract(m.false_atoms());
  // The EDB predicates are computed once per render, not once per set.
  std::set<SymbolId> edb_set;
  if (!opts.include_edb) edb_set = gp.source().EdbPredicates();
  const std::set<SymbolId>* edb = opts.include_edb ? nullptr : &edb_set;
  std::string out;
  out += "true:  " + NameSet(gp, m.true_atoms(), edb) + "\n";
  if (opts.include_false) {
    out += "false: " + NameSet(gp, m.false_atoms(), edb) + "\n";
  }
  out += "undef: " + NameSet(gp, undef, edb) + "\n";
  return out;
}

std::string ModelToJson(const GroundProgram& gp, const PartialModel& m,
                        const ModelPrintOptions& opts) {
  JsonWriter w;
  w.BeginObject();
  WriteModelJson(w, gp, m, opts);
  w.EndObject();
  return w.str();
}

void WriteModelJson(JsonWriter& w, const GroundProgram& gp,
                    const PartialModel& m, const ModelPrintOptions& opts) {
  std::set<SymbolId> edb;
  if (!opts.include_edb) edb = gp.source().EdbPredicates();

  // Counts and the atom list cover the same (filtered) set of atoms.
  std::uint64_t n_true = 0, n_false = 0, n_undef = 0;
  std::vector<AtomId> listed;
  for (AtomId a = 0; a < gp.num_atoms(); ++a) {
    if (!opts.include_edb && edb.count(gp.atoms().predicate(a))) continue;
    switch (m.Value(a)) {
      case TruthValue::kTrue:
        ++n_true;
        break;
      case TruthValue::kFalse:
        ++n_false;
        if (!opts.include_false) continue;
        break;
      case TruthValue::kUndefined:
        ++n_undef;
        break;
    }
    listed.push_back(a);
  }

  w.Key("counts");
  w.BeginObject()
      .KeyValue("true", n_true)
      .KeyValue("false", n_false)
      .KeyValue("undefined", n_undef)
      .EndObject();
  w.BeginArray("atoms");
  for (AtomId a : listed) {
    w.BeginObject()
        .KeyValue("atom", gp.AtomName(a))
        .KeyValue("value", TruthValueName(m.Value(a)))
        .EndObject();
  }
  w.EndArray();
}

namespace {

/// Translates a term from a freshly parsed scratch program into the ground
/// program's source tables without mutating them. Returns kInvalidTerm if
/// the term does not exist there.
TermId TranslateTerm(const Program& scratch, TermId t, const Program& source) {
  const TermTable& st = scratch.terms();
  SymbolId name_there =
      source.symbols().Find(scratch.symbols().Name(st.symbol(t)));
  if (name_there == Interner::npos) return kInvalidTerm;
  switch (st.kind(t)) {
    case TermKind::kConstant:
      return source.terms().FindConstant(name_there);
    case TermKind::kVariable:
      return kInvalidTerm;  // queries must be ground
    case TermKind::kCompound: {
      std::vector<TermId> args;
      for (TermId a : st.args(t)) {
        TermId ta = TranslateTerm(scratch, a, source);
        if (ta == kInvalidTerm) return kInvalidTerm;
        args.push_back(ta);
      }
      return source.terms().FindCompound(name_there, args);
    }
  }
  return kInvalidTerm;
}

}  // namespace

StatusOr<AtomId> ResolveAtom(const GroundProgram& gp,
                             const std::string& atom_text) {
  // Parse "atom." as a tiny scratch program, then translate into the source
  // program's interned space.
  AFP_ASSIGN_OR_RETURN(Program scratch, Parser::Parse(atom_text + "."));
  if (scratch.rules().size() != 1 || !scratch.rules()[0].body.empty()) {
    return Status::InvalidArgument("expected a single ground atom: " +
                                   atom_text);
  }
  const Atom& a = scratch.rules()[0].head;
  const Program& source = gp.source();
  SymbolId pred = source.symbols().Find(scratch.symbols().Name(a.predicate));
  if (pred == Interner::npos) return kInvalidAtom;
  std::vector<TermId> args;
  for (TermId t : a.args) {
    TermId ta = TranslateTerm(scratch, t, source);
    if (ta == kInvalidTerm) return kInvalidAtom;
    args.push_back(ta);
  }
  return gp.atoms().Find(pred, args);
}

StatusOr<TruthValue> QueryAtom(const GroundProgram& gp, const PartialModel& m,
                               const std::string& atom_text) {
  AFP_ASSIGN_OR_RETURN(AtomId id, ResolveAtom(gp, atom_text));
  if (id == kInvalidAtom) return TruthValue::kFalse;
  return m.Value(id);
}

}  // namespace afp
