// Term table and Program AST tests: hash-consing, substitution, EDB/IDB
// classification, rendering, validation.

#include "ast/program.h"

#include <gtest/gtest.h>

#include "ast/term.h"

namespace afp {
namespace {

TEST(TermTable, HashConsingGivesStableIds) {
  Program p;
  TermId a1 = p.Const("a");
  TermId a2 = p.Const("a");
  EXPECT_EQ(a1, a2);
  TermId f1 = p.Compound("f", {a1, p.Const("b")});
  TermId f2 = p.Compound("f", {a2, p.Const("b")});
  EXPECT_EQ(f1, f2);
  EXPECT_NE(f1, p.Compound("f", {p.Const("b"), a1}));
}

TEST(TermTable, GroundnessAndDepth) {
  Program p;
  TermId x = p.Var("X");
  TermId a = p.Const("a");
  TermId fa = p.Compound("f", {a});
  TermId ffx = p.Compound("f", {p.Compound("f", {x})});
  const TermTable& t = p.terms();
  EXPECT_TRUE(t.IsGround(a));
  EXPECT_TRUE(t.IsGround(fa));
  EXPECT_FALSE(t.IsGround(x));
  EXPECT_FALSE(t.IsGround(ffx));
  EXPECT_EQ(t.Depth(a), 0u);
  EXPECT_EQ(t.Depth(fa), 1u);
  EXPECT_EQ(t.Depth(ffx), 2u);
}

TEST(TermTable, SubstituteSharesUnchangedSubterms) {
  Program p;
  TermId x = p.Var("X");
  TermId ga = p.Compound("g", {p.Const("a")});
  TermId fxg = p.Compound("f", {x, ga});
  std::unordered_map<SymbolId, TermId> binding{
      {p.symbols().Intern("X"), p.Const("b")}};
  TermId out = p.terms().Substitute(fxg, binding);
  EXPECT_EQ(p.terms().ToString(out, p.symbols()), "f(b,g(a))");
  // The ground subterm g(a) is shared, not copied.
  EXPECT_EQ(p.terms().args(out)[1], ga);
  // Substituting a ground term is the identity.
  EXPECT_EQ(p.terms().Substitute(ga, binding), ga);
}

TEST(TermTable, ToStringRendersDeepTerms) {
  // Rendering walks the term with an explicit stack: a term nested far
  // deeper than the call stack allows still renders.
  constexpr int kDepth = 200000;
  Program p;
  TermId t = p.Const("a");
  for (int i = 0; i < kDepth; ++i) t = p.Compound("f", {t});
  const std::string s = p.terms().ToString(t, p.symbols());
  ASSERT_EQ(s.size(), 3u * kDepth + 1);
  EXPECT_EQ(s.substr(0, 6), "f(f(f(");
  EXPECT_EQ(s.substr(2 * kDepth - 2, 6), "f(a)))");
  EXPECT_EQ(s.find_first_not_of(')', 2 * kDepth + 1), std::string::npos);
  EXPECT_EQ(p.terms().Depth(t), static_cast<std::uint32_t>(kDepth));
  EXPECT_EQ(p.terms().ToString(p.Compound("g", {p.Const("b"), t, p.Var("X")}),
                               p.symbols())
                .substr(0, 8),
            "g(b,f(f(");
}

TEST(TermTable, FindConstLookupsDoNotIntern) {
  Program p;
  p.Const("a");
  const TermTable& t = p.terms();
  SymbolId a = p.symbols().Find("a");
  ASSERT_NE(a, Interner::npos);
  EXPECT_NE(t.FindConstant(a), kInvalidTerm);
  std::size_t before = t.size();
  // Lookup of a non-existent compound does not grow the table.
  EXPECT_EQ(t.FindCompound(a, std::vector<TermId>{t.FindConstant(a)}),
            kInvalidTerm);
  EXPECT_EQ(t.size(), before);
}

TEST(Program, EdbIdbClassification) {
  auto p = ParseProgram(R"(
    e(1,2). e(2,3).
    tc(X,Y) :- e(X,Y).
    tc(X,Y) :- e(X,Z), tc(Z,Y).
  )");
  ASSERT_TRUE(p.ok());
  auto idb = p->IdbPredicates();
  auto edb = p->EdbPredicates();
  EXPECT_EQ(idb.size(), 1u);
  EXPECT_EQ(edb.size(), 1u);
  EXPECT_TRUE(idb.count(p->symbols().Find("tc")));
  EXPECT_TRUE(edb.count(p->symbols().Find("e")));
}

TEST(Program, MixedFactAndRulePredicateIsIdb) {
  auto p = ParseProgram("p(a). p(X) :- q(X). q(b).");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->IdbPredicates().count(p->symbols().Find("p")));
  EXPECT_FALSE(p->IdbPredicates().count(p->symbols().Find("q")));
}

TEST(Program, ToStringRoundTripsThroughParser) {
  const char* text = "e(1,2).\nwins(X) :- move(X,Y), not wins(Y).\n";
  auto p1 = ParseProgram(text);
  ASSERT_TRUE(p1.ok());
  auto p2 = ParseProgram(p1->ToString());
  ASSERT_TRUE(p2.ok()) << p2.status().ToString();
  EXPECT_EQ(p1->ToString(), p2->ToString());
}

TEST(Program, ValidateCatchesUnsafeProgrammaticRules) {
  Program p;
  // head variable X unsupported by any positive literal
  p.AddRule(p.MakeAtom("p", {p.Var("X")}), {});
  Status s = p.Validate();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(Program, VariablesInsideCompoundsCountForSafety) {
  // X occurs inside f(X) in a positive literal: safe.
  auto ok = ParseProgram("p(X) :- q(f(X)).");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  // X occurs only inside a negative literal's compound: unsafe.
  auto bad = ParseProgram("p :- q(a), not r(f(X)).");
  EXPECT_FALSE(bad.ok());
}

TEST(Program, BuilderAndRenderers) {
  Program p;
  Atom head = p.MakeAtom("wins", {p.Var("X")});
  Literal pos = Program::Pos(p.MakeAtom("move", {p.Var("X"), p.Var("Y")}));
  Literal neg = Program::Neg(p.MakeAtom("wins", {p.Var("Y")}));
  p.AddRule(head, {pos, neg});
  EXPECT_EQ(p.ToString(), "wins(X) :- move(X,Y), not wins(Y).\n");
  EXPECT_EQ(p.LiteralToString(neg), "not wins(Y)");
}

TEST(Program, PredicateArityRecorded) {
  auto p = ParseProgram("e(1,2). p :- e(1,2).");
  ASSERT_TRUE(p.ok());
  const auto& arity = p->predicate_arity();
  EXPECT_EQ(arity.at(p->symbols().Find("e")), 2u);
  EXPECT_EQ(arity.at(p->symbols().Find("p")), 0u);
}

}  // namespace
}  // namespace afp
