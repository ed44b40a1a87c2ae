// Lexer and parser tests: token forms, rule syntax, diagnostics with
// positions, and the validation (arity + safety) run by Parse.

#include "parser/parser.h"

#include <gtest/gtest.h>

#include <string>

#include "parser/lexer.h"

namespace afp {
namespace {

TEST(Lexer, BasicTokens) {
  auto toks = Lexer::Tokenize("p(X) :- e(a,1), not q(X).");
  ASSERT_TRUE(toks.ok()) << toks.status().ToString();
  std::vector<TokenKind> kinds;
  for (const Token& t : *toks) kinds.push_back(t.kind);
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kIdent, TokenKind::kLParen, TokenKind::kVariable,
                TokenKind::kRParen, TokenKind::kIf, TokenKind::kIdent,
                TokenKind::kLParen, TokenKind::kIdent, TokenKind::kComma,
                TokenKind::kInteger, TokenKind::kRParen, TokenKind::kComma,
                TokenKind::kNot, TokenKind::kIdent, TokenKind::kLParen,
                TokenKind::kVariable, TokenKind::kRParen, TokenKind::kDot,
                TokenKind::kEof}));
}

TEST(Lexer, CommentsAndWhitespace) {
  auto toks = Lexer::Tokenize("% a comment\n  p. % trailing\n");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks).size(), 3u);  // p, '.', EOF
}

TEST(Lexer, PrologStyleNegation) {
  auto toks = Lexer::Tokenize("p :- \\+ q.");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[2].kind, TokenKind::kNot);
}

TEST(Lexer, NegativeIntegerAndQuotedAtom) {
  auto toks = Lexer::Tokenize("p(-3, 'Hello world').");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[2].text, "-3");
  EXPECT_EQ((*toks)[4].text, "Hello world");
  EXPECT_EQ((*toks)[4].kind, TokenKind::kIdent);
}

TEST(Lexer, PositionsInErrors) {
  auto toks = Lexer::Tokenize("p :- q.\n  @");
  ASSERT_FALSE(toks.ok());
  EXPECT_NE(toks.status().message().find("2:3"), std::string::npos)
      << toks.status().ToString();
}

TEST(Lexer, UnterminatedQuote) {
  auto toks = Lexer::Tokenize("p('oops).");
  ASSERT_FALSE(toks.ok());
  EXPECT_NE(toks.status().message().find("unterminated"), std::string::npos);
}

TEST(Parser, FactsRulesAndRoundTrip) {
  auto p = Parser::Parse("e(1,2).\nwins(X) :- move(X,Y), not wins(Y).\n");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ASSERT_EQ(p->rules().size(), 2u);
  EXPECT_TRUE(p->rules()[0].IsFact(p->terms()));
  EXPECT_FALSE(p->rules()[1].IsFact(p->terms()));
  EXPECT_EQ(p->RuleToString(p->rules()[1]),
            "wins(X) :- move(X,Y), not wins(Y).");
}

TEST(Parser, PropositionalAtoms) {
  auto p = Parser::Parse("p :- q, not r. q. ");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->rules()[0].body.size(), 2u);
  EXPECT_TRUE(p->rules()[0].body[0].positive);
  EXPECT_FALSE(p->rules()[0].body[1].positive);
}

TEST(Parser, CompoundTerms) {
  auto p = Parser::Parse("num(z). num(s(X)) :- num(X), not bad(s(X)). ");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const Rule& r = p->rules()[1];
  EXPECT_EQ(p->terms().kind(r.head.args[0]), TermKind::kCompound);
  EXPECT_EQ(p->AtomToString(r.head), "num(s(X))");
}

TEST(Parser, ErrorMissingDot) {
  auto p = Parser::Parse("p :- q");
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(p.status().message().find("expected '.'"), std::string::npos);
}

TEST(Parser, ErrorBadHead) {
  auto p = Parser::Parse("X :- q.");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("predicate"), std::string::npos);
}

TEST(Parser, RejectsInconsistentArity) {
  auto p = Parser::Parse("p(a). p(a,b).");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("inconsistent arities"),
            std::string::npos);
}

TEST(Parser, RejectsUnsafeHeadVariable) {
  auto p = Parser::Parse("p(X) :- not q(X).");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("unsafe"), std::string::npos);
}

TEST(Parser, RejectsUnsafeNegativeVariable) {
  auto p = Parser::Parse("p :- e(X), not q(X, Y).");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("negative literal"),
            std::string::npos);
}

TEST(Parser, AcceptsGroundNegation) {
  auto p = Parser::Parse("p :- not q. q :- not p.");
  EXPECT_TRUE(p.ok()) << p.status().ToString();
}

TEST(Parser, VariablesOnlyInPositiveBodyAreFine) {
  auto p = Parser::Parse("reach(Y) :- reach(X), e(X,Y). reach(a).");
  EXPECT_TRUE(p.ok()) << p.status().ToString();
}

std::string NestedFact(int levels) {
  std::string text = "p(";
  for (int i = 0; i < levels; ++i) text += "f(";
  text += "a";
  text.append(static_cast<std::size_t>(levels) + 1, ')');
  return text + ".";
}

TEST(Parser, RejectsTermNestingPastTheLimit) {
  auto at_limit = Parser::Parse(NestedFact(kMaxTermNesting));
  EXPECT_TRUE(at_limit.ok()) << at_limit.status().ToString();

  // Reported at the first '(' past the limit: after "p(" and 1000 "f(",
  // the next "f" sits at column 2003 and its '(' at 2004.
  auto past = Parser::Parse(NestedFact(kMaxTermNesting + 1));
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(past.status().message().find("at 1:2004:"), std::string::npos)
      << past.status().message();

  // 200k levels used to overflow the stack of the recursive term parser.
  auto hostile = Parser::Parse(NestedFact(200000));
  ASSERT_FALSE(hostile.ok());
  EXPECT_EQ(hostile.status().code(), StatusCode::kInvalidArgument);
}

TEST(Parser, EmptyInput) {
  auto p = Parser::Parse("  % nothing but comments\n");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->rules().empty());
}

}  // namespace
}  // namespace afp
