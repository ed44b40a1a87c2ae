#ifndef AFP_PARSER_PARSER_H_
#define AFP_PARSER_PARSER_H_

#include <string_view>

#include "ast/program.h"
#include "util/status.h"

namespace afp {

/// Parses a normal logic program (Definition 3.1) in conventional syntax:
///
///   % a comment
///   edge(1,2).                       % ground facts
///   wins(X) :- move(X,Y), not wins(Y).
///   u(X) :- e(Y,X), \+ w(Y).         % "\+" is a synonym for "not"
///
/// Identifiers starting with a lowercase letter (or quoted with single
/// quotes) are constants/functors/predicates; identifiers starting with an
/// uppercase letter or '_' are variables; integers are constants. Compound
/// terms f(g(X),a) are allowed in argument positions.
///
/// The returned program is validated (consistent arities and safety /
/// range restriction). Errors carry line:column positions.
/// Reserved predicate name used to encode integrity constraints
/// (":- body." becomes "__bot :- body, not __bot."). A program with a
/// violated constraint has no stable model containing the body, and __bot
/// surfaces as undefined in the well-founded model when the body can hold.
inline constexpr char kConstraintAtomName[] = "__bot";

/// Deepest compound-term nesting the parser accepts: f(f(a)) nests 2
/// levels. Terms are parsed recursively, so a bound keeps hostile input
/// from overflowing the stack; deeper terms fail with InvalidArgument at
/// the offending '('. The bound leaves room for sanitizer-sized stack
/// frames and is far beyond any program in the corpus.
inline constexpr int kMaxTermNesting = 1000;

class Parser {
 public:
  static StatusOr<Program> Parse(std::string_view text);

  /// Parses a single atom — possibly containing variables, e.g. "tc(a,Y)" —
  /// into a scratch Program whose single (body-free) rule head is the atom.
  /// Skips validation, so unsafe patterns are fine; used by the query API.
  static StatusOr<Program> ParseAtomPattern(std::string_view text);

  /// Parses `text` appending its rules to `program`, interning symbols and
  /// terms into the program's own tables, then re-validates the combined
  /// program. On any error the rule list is rolled back to its prior length
  /// and `program` is semantically unchanged (interned symbols/terms may
  /// remain; they are inert). Returns the index of the first appended rule.
  /// This is the session-mutation entry point (Solver::AddRule): the live
  /// program's interner must be shared so new rules can refer to existing
  /// constants and predicates by the same ids.
  static StatusOr<std::size_t> ParseRulesInto(Program& program,
                                              std::string_view text);
};

}  // namespace afp

#endif  // AFP_PARSER_PARSER_H_
