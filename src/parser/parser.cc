#include "parser/parser.h"

#include <string>
#include <vector>

#include "parser/lexer.h"

namespace afp {

namespace {

/// Recursive-descent parser over a pre-lexed token stream.
class ParserImpl {
 public:
  explicit ParserImpl(std::vector<Token> tokens)
      : tokens_(std::move(tokens)), program_(&owned_) {}
  /// Parses into a caller-owned program instead of the internal scratch
  /// one (the ParseRulesInto session-append path).
  ParserImpl(std::vector<Token> tokens, Program* into)
      : tokens_(std::move(tokens)), program_(into) {}

  StatusOr<Program> Run() {
    while (!At(TokenKind::kEof)) {
      AFP_RETURN_IF_ERROR(ParseRule());
    }
    AFP_RETURN_IF_ERROR(program_->Validate());
    return std::move(*program_);
  }

  /// Parses exactly one atom and wraps it as a body-free rule, skipping
  /// validation (patterns may be unsafe).
  StatusOr<Program> RunAtomPattern() {
    AFP_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
    if (!At(TokenKind::kEof) &&
        !(At(TokenKind::kDot) && tokens_[pos_ + 1].kind == TokenKind::kEof)) {
      return ErrorHere("expected a single atom");
    }
    program_->AddRule(std::move(atom));
    return std::move(*program_);
  }

  /// Appends parsed rules to the external program, validating the combined
  /// result; rolls the rule list back on any failure so the live program
  /// is semantically unchanged. Returns the index of the first new rule.
  StatusOr<std::size_t> RunInto() {
    const std::size_t first = program_->rules().size();
    Status st = Status::Ok();
    while (!At(TokenKind::kEof)) {
      st = ParseRule();
      if (!st.ok()) break;
    }
    if (st.ok()) st = program_->Validate();
    if (!st.ok()) {
      program_->TruncateRules(first);
      return st;
    }
    return first;
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  bool At(TokenKind k) const { return Cur().kind == k; }
  void Advance() { ++pos_; }

  Status ErrorHere(const std::string& msg) {
    return Status::InvalidArgument(
        "parse error at " + std::to_string(Cur().line) + ":" +
        std::to_string(Cur().column) + ": " + msg +
        (Cur().kind == TokenKind::kEof ? " (at end of input)"
                                       : ", got '" + Cur().text + "'"));
  }

  Status Expect(TokenKind k, const char* what) {
    if (!At(k)) return ErrorHere(std::string("expected ") + what);
    Advance();
    return Status::Ok();
  }

  Status ParseRule() {
    // Integrity constraint ":- body." — sugar for the standard encoding
    //   __bot :- body, not __bot.
    // whose odd loop eliminates every stable model satisfying the body and
    // marks __bot undefined in the well-founded model when the body can
    // hold.
    if (At(TokenKind::kIf)) {
      Advance();
      std::vector<Literal> body;
      while (true) {
        AFP_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
        body.push_back(std::move(lit));
        if (!At(TokenKind::kComma)) break;
        Advance();
      }
      AFP_RETURN_IF_ERROR(Expect(TokenKind::kDot, "'.'"));
      Atom bot = program_->MakeAtom(kConstraintAtomName);
      body.push_back(Literal{bot, false});
      program_->AddRule(std::move(bot), std::move(body));
      return Status::Ok();
    }
    AFP_ASSIGN_OR_RETURN(Atom head, ParseAtom());
    std::vector<Literal> body;
    if (At(TokenKind::kIf)) {
      Advance();
      while (true) {
        AFP_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
        body.push_back(std::move(lit));
        if (!At(TokenKind::kComma)) break;
        Advance();
      }
    }
    AFP_RETURN_IF_ERROR(Expect(TokenKind::kDot, "'.'"));
    program_->AddRule(std::move(head), std::move(body));
    return Status::Ok();
  }

  StatusOr<Literal> ParseLiteral() {
    bool positive = true;
    if (At(TokenKind::kNot)) {
      positive = false;
      Advance();
    }
    AFP_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
    return Literal{std::move(atom), positive};
  }

  StatusOr<Atom> ParseAtom() {
    if (!At(TokenKind::kIdent)) return ErrorHere("expected a predicate name");
    SymbolId pred = program_->Symbol(Cur().text);
    Advance();
    std::vector<TermId> args;
    if (At(TokenKind::kLParen)) {
      Advance();
      while (true) {
        AFP_ASSIGN_OR_RETURN(TermId t, ParseTerm());
        args.push_back(t);
        if (!At(TokenKind::kComma)) break;
        Advance();
      }
      AFP_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    }
    return Atom{pred, std::move(args)};
  }

  StatusOr<TermId> ParseTerm() {
    if (At(TokenKind::kVariable)) {
      TermId t = program_->Var(Cur().text);
      Advance();
      return t;
    }
    if (At(TokenKind::kInteger)) {
      TermId t = program_->Const(Cur().text);
      Advance();
      return t;
    }
    if (At(TokenKind::kIdent)) {
      std::string name = Cur().text;
      Advance();
      if (!At(TokenKind::kLParen)) return program_->Const(name);
      // An error abandons the whole parse, so the early returns below
      // need not unwind nesting_.
      if (++nesting_ > kMaxTermNesting) {
        return ErrorHere("term nested deeper than " +
                         std::to_string(kMaxTermNesting) + " levels");
      }
      Advance();
      std::vector<TermId> args;
      while (true) {
        AFP_ASSIGN_OR_RETURN(TermId t, ParseTerm());
        args.push_back(t);
        if (!At(TokenKind::kComma)) break;
        Advance();
      }
      AFP_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      --nesting_;
      return program_->Compound(name, std::move(args));
    }
    return ErrorHere("expected a term");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int nesting_ = 0;  // compound terms open around the current token
  Program owned_;
  Program* program_;
};

}  // namespace

StatusOr<Program> Parser::Parse(std::string_view text) {
  AFP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer::Tokenize(text));
  ParserImpl impl(std::move(tokens));
  return impl.Run();
}

StatusOr<Program> Parser::ParseAtomPattern(std::string_view text) {
  AFP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer::Tokenize(text));
  ParserImpl impl(std::move(tokens));
  return impl.RunAtomPattern();
}

StatusOr<std::size_t> Parser::ParseRulesInto(Program& program,
                                             std::string_view text) {
  AFP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer::Tokenize(text));
  ParserImpl impl(std::move(tokens), &program);
  return impl.RunInto();
}

StatusOr<Program> ParseProgram(std::string_view text) {
  return Parser::Parse(text);
}

}  // namespace afp
