#include "index.h"

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>
#include <tuple>
#include <utility>

namespace wsnlint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Words that can never be a function/callee name.
bool IsKeyword(const std::string& word) {
  static const std::set<std::string> kKeywords = {
      "if",       "for",      "while",     "switch",   "catch",
      "return",   "do",       "else",      "new",      "delete",
      "throw",    "case",     "goto",      "sizeof",   "alignof",
      "default",  "co_await", "co_return", "co_yield", "constexpr",
      "decltype", "typeid",   "assert",    "void",     "const",
  };
  return kKeywords.count(word) != 0;
}

// Words that mark a statement head as control flow / expression, never a
// declaration. Decl specifiers (static, inline, constexpr, virtual, ...)
// are deliberately absent: they appear in legitimate definition heads.
bool IsStatementKeyword(const std::string& word) {
  static const std::set<std::string> kKeywords = {
      "if",   "for",   "while", "switch", "catch", "return", "do",
      "else", "throw", "case",  "goto",   "new",   "delete",
  };
  return kKeywords.count(word) != 0;
}

std::string Trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = text.find_last_not_of(" \t\r\n");
  return text.substr(begin, end - begin + 1);
}

/// Strips leading access labels (`public:` ...) and `[[...]]` attributes —
/// both are noise for statement classification.
std::string StripLabelsAndAttributes(std::string head) {
  static const std::regex kLabel(R"(^\s*(public|private|protected)\s*:)");
  static const std::regex kAttribute(R"(\[\[[^\]]*\]\])");
  std::string out = std::regex_replace(head, kAttribute, " ");
  std::smatch match;
  while (std::regex_search(out, match, kLabel)) {
    out = out.substr(static_cast<std::size_t>(match.length(0)));
  }
  return Trim(out);
}

std::vector<std::string> Tokens(const std::string& text) {
  std::vector<std::string> tokens;
  std::string current;
  for (const char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) tokens.push_back(current);
  return tokens;
}

/// The (possibly `Class::`-qualified) identifier whose last character sits
/// at `end` (exclusive) in `text`; empty when that position is not an
/// identifier end.
std::string QualifiedNameEndingAt(const std::string& text, std::size_t end) {
  std::size_t begin = end;
  while (begin > 0 && IsIdentChar(text[begin - 1])) --begin;
  if (begin == end) return "";
  std::string name = text.substr(begin, end - begin);
  while (begin >= 2 && text[begin - 1] == ':' && text[begin - 2] == ':') {
    std::size_t qual_end = begin - 2;
    std::size_t qual_begin = qual_end;
    while (qual_begin > 0 && IsIdentChar(text[qual_begin - 1])) --qual_begin;
    if (qual_begin == qual_end) break;
    name = text.substr(qual_begin, qual_end - qual_begin) + "::" + name;
    begin = qual_begin;
  }
  if (begin > 0 && text[begin - 1] == '~') name = "~" + name;
  return name;
}

/// Decides whether `head` (the statement text before a `{`) is a function
/// definition. On success fills `name`/`class_name` and returns true.
bool ClassifyFunctionHead(const std::string& head,
                          const std::string& enclosing_class,
                          std::string* name, std::string* class_name) {
  const std::size_t paren = head.find('(');
  if (paren == std::string::npos) return false;
  const std::string prefix = head.substr(0, paren);
  // Assignments, member-call expressions, lambda intros, and array
  // declarators are never function heads.
  if (prefix.find('=') != std::string::npos) return false;
  if (prefix.find('.') != std::string::npos) return false;
  if (prefix.find("->") != std::string::npos) return false;
  if (prefix.find('[') != std::string::npos) return false;

  std::size_t trimmed_end = prefix.size();
  while (trimmed_end > 0 &&
         std::isspace(static_cast<unsigned char>(prefix[trimmed_end - 1]))) {
    --trimmed_end;
  }
  const std::string qualified = QualifiedNameEndingAt(prefix, trimmed_end);
  if (qualified.empty()) return false;

  std::string unqualified = qualified;
  std::string qualifier;
  const std::size_t sep = qualified.rfind("::");
  if (sep != std::string::npos) {
    unqualified = qualified.substr(sep + 2);
    const std::size_t prev = qualified.rfind("::", sep - 1);
    qualifier = prev == std::string::npos
                    ? qualified.substr(0, sep)
                    : qualified.substr(prev + 2, sep - prev - 2);
  }
  // Destructors carry no state logic worth indexing.
  if (unqualified.empty() || unqualified[0] == '~') return false;
  if (IsKeyword(unqualified)) return false;
  for (const std::string& token : Tokens(prefix)) {
    if (IsStatementKeyword(token)) return false;
  }

  // A bare unqualified name with no return type is a call expression —
  // except a constructor defined inside its own class.
  const std::vector<std::string> tokens = Tokens(prefix);
  const bool qualified_name = qualified.find("::") != std::string::npos;
  if (tokens.size() < 2 && !qualified_name && unqualified != enclosing_class) {
    return false;
  }

  // The parameter list must close before the brace, and only trailer
  // tokens (cv/ref/noexcept/override/final), a trailing return type, or a
  // constructor init list may follow it.
  int depth = 0;
  std::size_t close = std::string::npos;
  for (std::size_t i = paren; i < head.size(); ++i) {
    if (head[i] == '(') ++depth;
    if (head[i] == ')' && --depth == 0) {
      close = i;
      break;
    }
  }
  if (close == std::string::npos) return false;
  const std::string trailer = Trim(head.substr(close + 1));
  static const std::regex kTrailer(
      R"(^((const|noexcept|override|final|mutable|try|&|&&)\s*)*(->.*|:.*)?$)");
  if (!std::regex_match(trailer, kTrailer)) return false;

  *name = unqualified;
  *class_name = qualifier.empty() ? enclosing_class : qualifier;
  return true;
}

/// First `=` that is a member initializer: not part of ==, <=, >=, !=,
/// and not nested in parentheses (a method declaration's default argument
/// or `= 0` pure-virtual marker after the parameter list's close paren is
/// handled by the caller's ends-with-`)` method test).
std::size_t FindInitializerEq(const std::string& text) {
  int paren_depth = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(') ++paren_depth;
    if (c == ')' && paren_depth > 0) --paren_depth;
    if (c != '=' || paren_depth > 0) continue;
    const char prev = i > 0 ? text[i - 1] : '\0';
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (prev == '=' || prev == '<' || prev == '>' || prev == '!' ||
        next == '=') {
      continue;
    }
    return i;
  }
  return std::string::npos;
}

/// Parses one `;`-terminated statement at class scope; records it when it
/// declares a data member.
void ParseClassStatement(const std::string& raw_head, int line,
                         ClassInfo* cls) {
  const std::string head = StripLabelsAndAttributes(raw_head);
  if (head.empty()) return;
  std::string decl = head;
  const std::size_t eq = FindInitializerEq(decl);
  if (eq != std::string::npos) decl = Trim(decl.substr(0, eq));
  if (decl.empty()) return;

  const std::vector<std::string> tokens = Tokens(decl);
  if (tokens.empty()) return;
  static const std::set<std::string> kSkipLead = {
      "using", "typedef", "friend", "static", "template", "enum",
      "class",  "struct",  "union",  "operator"};
  if (kSkipLead.count(tokens.front()) != 0) return;

  // A declaration ending in `)` (after trailing cv/virt specifiers) is a
  // method declaration; one ending in an identifier is a data member even
  // when its type spells parentheses (std::function<void(int)> cb_).
  std::string tail = decl;
  static const std::regex kTrailingSpecifier(
      R"(\s*(const|noexcept|override|final|= 0)\s*$)");
  for (int pass = 0; pass < 4; ++pass) {
    tail = std::regex_replace(tail, kTrailingSpecifier, "");
  }
  if (!tail.empty() && tail.back() == ')') return;
  // Reference members bind in the constructor and cannot be reseated;
  // const/mutable members are configuration or synchronization, not
  // logical state — none of them belong in a serialized image.
  if (decl.find('&') != std::string::npos) return;
  if (tokens.front() == "const" || tokens.front() == "mutable") return;

  std::string last = tokens.back();
  const std::size_t bracket = last.find('[');
  if (bracket != std::string::npos) last = last.substr(0, bracket);
  while (!last.empty() && (last.back() == ';' || last.back() == ':')) {
    last.pop_back();
  }
  if (last.empty() || !IsIdentChar(last[0]) ||
      std::isdigit(static_cast<unsigned char>(last[0])) || IsKeyword(last)) {
    return;
  }
  for (const char c : last) {
    if (!IsIdentChar(c)) return;
  }
  if (tokens.size() < 2) return;  // a lone identifier is not a declaration
  cls->members.push_back({last, line});
}

/// Extracts unqualified callee names from a function body (blanked code).
std::vector<std::string> ExtractCalls(const std::string& body) {
  std::vector<std::string> calls;
  static const std::regex kCall(R"(([A-Za-z_][A-Za-z0-9_]*)\s*\()");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), kCall);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1].str();
    if (IsKeyword(name)) continue;
    // Resolve the qualifier chain; std:: calls never resolve to repo code.
    std::size_t begin = static_cast<std::size_t>(it->position(1));
    std::string root;
    while (begin >= 2 && body[begin - 1] == ':' && body[begin - 2] == ':') {
      std::size_t qual_end = begin - 2;
      std::size_t qual_begin = qual_end;
      while (qual_begin > 0 && IsIdentChar(body[qual_begin - 1])) {
        --qual_begin;
      }
      if (qual_begin == qual_end) break;
      root = body.substr(qual_begin, qual_end - qual_begin);
      begin = qual_begin;
    }
    if (root == "std") continue;
    calls.push_back(name);
  }
  std::sort(calls.begin(), calls.end());
  calls.erase(std::unique(calls.begin(), calls.end()), calls.end());
  return calls;
}

enum class ScopeKind { kNamespace, kClass, kFunction, kOther };

struct Scope {
  ScopeKind kind = ScopeKind::kOther;
  std::size_t class_index = 0;     // into out->classes, for kClass
  std::size_t function_index = 0;  // into out->functions, for kFunction
  std::string carried_head;        // restored on pop, for kOther
};

void ParseStructure(SourceFile* file, Index* out) {
  const std::string& code = file->scan.code;
  std::vector<Scope> scopes;
  std::string head;
  int line = 1;
  int head_line = 1;

  const auto enclosing_class = [&]() -> ClassInfo* {
    if (!scopes.empty() && scopes.back().kind == ScopeKind::kClass) {
      return &out->classes[scopes.back().class_index];
    }
    return nullptr;
  };

  static const std::regex kNamespaceHead(R"(^namespace\b)");
  static const std::regex kClassHead(
      R"(^(template\s*<[^;{]*>\s*)?(class|struct|union)\s+([A-Za-z_][A-Za-z0-9_]*))");

  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '\n') ++line;
    if (c == '{') {
      const std::string statement = StripLabelsAndAttributes(head);
      Scope scope;
      std::smatch match;
      std::string name;
      std::string class_name;
      if (std::regex_search(statement, kNamespaceHead)) {
        scope.kind = ScopeKind::kNamespace;
      } else if (std::regex_search(statement, match, kClassHead) &&
                 statement.find('(') == std::string::npos) {
        scope.kind = ScopeKind::kClass;
        scope.class_index = out->classes.size();
        out->classes.push_back({match[3].str(), file->path, head_line, {}});
      } else if (ClassifyFunctionHead(
                     statement,
                     enclosing_class() ? enclosing_class()->name : "", &name,
                     &class_name)) {
        scope.kind = ScopeKind::kFunction;
        scope.function_index = out->functions.size();
        out->functions.push_back(
            {name, class_name, file->path, head_line, i + 1, i + 1, {}});
      } else {
        scope.kind = ScopeKind::kOther;
        scope.carried_head = head;
      }
      scopes.push_back(std::move(scope));
      head.clear();
      continue;
    }
    if (c == '}') {
      if (!scopes.empty()) {
        const Scope& top = scopes.back();
        if (top.kind == ScopeKind::kFunction) {
          out->functions[top.function_index].body_end = i;
          head.clear();
        } else if (top.kind == ScopeKind::kOther) {
          head = top.carried_head;  // brace-init member: keep the decl text
        } else {
          head.clear();
        }
        scopes.pop_back();
      } else {
        head.clear();
      }
      continue;
    }
    if (c == ';') {
      if (ClassInfo* cls = enclosing_class()) {
        ParseClassStatement(head, head_line, cls);
      }
      head.clear();
      continue;
    }
    if (head.empty() && !std::isspace(static_cast<unsigned char>(c))) {
      head_line = line;
    }
    if (!std::isspace(static_cast<unsigned char>(c)) || !head.empty()) {
      head += c == '\n' ? ' ' : c;
    }
  }
}

}  // namespace

const SourceFile* Index::FileByPath(const std::string& path) const {
  for (const SourceFile& file : files) {
    if (file.path == path) return &file;
  }
  return nullptr;
}

std::vector<const ClassInfo*> Index::ClassesNamed(
    const std::string& name) const {
  std::vector<const ClassInfo*> out;
  for (const ClassInfo& cls : classes) {
    if (cls.name == name) out.push_back(&cls);
  }
  return out;
}

std::vector<const FunctionInfo*> Index::FunctionsNamed(
    const std::string& name) const {
  std::vector<const FunctionInfo*> out;
  for (const FunctionInfo& fn : functions) {
    if (fn.name == name) out.push_back(&fn);
  }
  return out;
}

int Index::LineOf(const SourceFile& file, std::size_t offset) {
  int line = 1;
  const std::size_t end = std::min(offset, file.scan.code.size());
  for (std::size_t i = 0; i < end; ++i) {
    if (file.scan.code[i] == '\n') ++line;
  }
  return line;
}

Index BuildIndex(std::vector<SourceFile> files) {
  Index index;
  index.files = std::move(files);
  static const std::regex kInclude(R"re(^\s*#\s*include\s*"([^"]+)")re");
  for (SourceFile& file : index.files) {
    file.markers = ParseMarkers("wsnstatic", file.scan.comments);
    std::smatch match;
    for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
      if (std::regex_search(file.code_lines[i], match, kInclude)) {
        file.includes.push_back({match[1].str(), static_cast<int>(i) + 1});
      }
    }
    ParseStructure(&file, &index);
  }
  for (FunctionInfo& fn : index.functions) {
    const SourceFile* file = index.FileByPath(fn.file);
    if (fn.body_end > fn.body_begin) {
      fn.calls = ExtractCalls(
          file->scan.code.substr(fn.body_begin, fn.body_end - fn.body_begin));
    }
  }
  std::sort(index.classes.begin(), index.classes.end(),
            [](const ClassInfo& a, const ClassInfo& b) {
              return std::tie(a.name, a.file, a.line) <
                     std::tie(b.name, b.file, b.line);
            });
  std::sort(index.functions.begin(), index.functions.end(),
            [](const FunctionInfo& a, const FunctionInfo& b) {
              return std::tie(a.class_name, a.name, a.file, a.line) <
                     std::tie(b.class_name, b.name, b.file, b.line);
            });
  return index;
}

}  // namespace wsnlint
