/**
 * @file
 * dagger_lint: a token-level linter for discrete-event-simulation
 * determinism invariants (no libclang dependency; see
 * docs/ANALYSIS.md).
 *
 * Every figure this repo reproduces rests on bit-identical replay of
 * the DES core, so the things that silently break replay are banned as
 * named rules:
 *
 *   no-wallclock                  ambient time / entropy reads
 *                                 (system_clock, time(), rand(), ...)
 *                                 outside src/sim/rng
 *   seeded-rng-only               std <random> engines/distributions;
 *                                 randomness must flow through the
 *                                 explicitly seeded sim::Rng
 *   no-unordered-iteration-order  range-for over unordered_map/set in
 *                                 files that schedule events or
 *                                 register metrics
 *   no-raw-new-in-sim             raw `new` in src/ outside an
 *                                 immediate smart-pointer wrap
 *   event-handler-noexcept        `throw` in files that schedule
 *                                 events (an exception unwinding
 *                                 through EventQueue aborts a run with
 *                                 no simulation context)
 *   no-payload-memcpy             raw memcpy/memmove of payload bytes
 *                                 in src/ outside src/proto/; the
 *                                 payload path moves
 *                                 proto::PayloadBuf/PayloadView
 *                                 handles — byte copies live only
 *                                 behind the PayloadBuf API so the
 *                                 sim.payload.bytes_copied counter
 *                                 stays honest
 *   shared-mutable-static-in-sim  namespace-scope or function-local
 *                                 mutable static state in src/; the
 *                                 bench harness runs independent
 *                                 simulations on --jobs threads, which
 *                                 would all share it (const /
 *                                 constexpr / thread_local are exempt)
 *
 * Findings are suppressed per line with `// dagger-lint: allow(<rule>)`
 * (comma-separated rules, or `all`).  The tag is honored only inside a
 * `//` line comment or a block comment that opens and closes on that
 * same line; interiors of multi-line block comments and string
 * literals are inert.  A comment-only allow line (nothing but the
 * comment) also covers the line after it, for findings inside
 * multi-line expressions.  CRLF line endings are tolerated.
 *
 * Usage:
 *
 *   dagger_lint [--json] [--rule NAME]... [--list-rules] PATH...
 *
 * Paths may be files or directories (walked recursively for .cc/.hh,
 * sorted, so output order is deterministic).  Every scanned file is
 * loaded into an in-memory cache once; a .cc consults its same-stem
 * header through the cache instead of re-reading it from disk.  Exit
 * code: 0 when clean, 1 on unsuppressed findings, 2 on usage/IO
 * errors.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

const std::vector<std::string> kAllRules = {
    "no-wallclock",
    "seeded-rng-only",
    "no-unordered-iteration-order",
    "no-raw-new-in-sim",
    "event-handler-noexcept",
    "no-payload-memcpy",
    "shared-mutable-static-in-sim",
};

struct Finding
{
    std::string file;
    std::size_t line = 0;
    std::string rule;
    std::string message;
};

struct FileText
{
    std::string path;             ///< as reported (normalized)
    std::vector<std::string> raw; ///< verbatim lines (CR stripped)
    std::vector<std::string> code; ///< comments/strings blanked
    /// Per-line comment mask, aligned with raw: 'c' = char inside a
    /// line comment or a block comment that opens and closes on this
    /// line; 'm' = char inside a block comment spanning lines; ' '
    /// otherwise (code, strings).  Suppressions are honored only at
    /// 'c' positions.
    std::vector<std::string> mask;
    /// line (1-based) -> rules allowed on that line ("all" = wildcard)
    std::map<std::size_t, std::set<std::string>> allows;
};

bool
isIdent(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Parse `dagger-lint: allow(a, b)` suppressions out of a raw line.
 */
std::set<std::string>
parseAllows(const std::string &line)
{
    std::set<std::string> out;
    const std::size_t tag = line.find("dagger-lint:");
    if (tag == std::string::npos)
        return out;
    const std::size_t open = line.find("allow(", tag);
    if (open == std::string::npos)
        return out;
    const std::size_t close = line.find(')', open);
    if (close == std::string::npos)
        return out;
    std::string inner = line.substr(open + 6, close - open - 6);
    std::string cur;
    auto flush = [&] {
        if (!cur.empty())
            out.insert(cur);
        cur.clear();
    };
    for (char c : inner) {
        if (c == ',')
            flush();
        else if (!std::isspace(static_cast<unsigned char>(c)))
            cur += c;
    }
    flush();
    return out;
}

/**
 * Load a file and blank out comments, string literals, and char
 * literals (replaced by spaces so columns/lines stay aligned).  The
 * comment mask is built alongside; suppression comments are harvested
 * from it afterwards, so allow tags inside strings or multi-line
 * block-comment interiors stay inert.
 */
bool
loadFile(const fs::path &p, FileText &out)
{
    std::ifstream f(p);
    if (!f)
        return false;
    out.path = p.generic_string();
    std::string line;
    while (std::getline(f, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back(); // tolerate CRLF files
        out.raw.push_back(line);
    }

    enum class St { Code, LineComment, BlockComment, Str, Chr };
    St st = St::Code;
    out.code.reserve(out.raw.size());
    out.mask.reserve(out.raw.size());
    for (const std::string &rawLine : out.raw) {
        std::string cooked = rawLine;
        std::string m(rawLine.size(), ' ');
        if (st == St::LineComment)
            st = St::Code; // line comments end at the newline
        // Start of the open block comment's coverage on *this* line,
        // and whether it also opened here (single-line candidates).
        std::size_t blockStart = 0;
        bool blockOpenedHere = false;
        for (std::size_t i = 0; i < cooked.size(); ++i) {
            const char c = cooked[i];
            const char n = i + 1 < cooked.size() ? cooked[i + 1] : '\0';
            switch (st) {
              case St::Code:
                if (c == '/' && n == '/') {
                    st = St::LineComment;
                    cooked[i] = ' ';
                    m[i] = 'c';
                } else if (c == '/' && n == '*') {
                    st = St::BlockComment;
                    blockStart = i;
                    blockOpenedHere = true;
                    cooked[i] = ' ';
                } else if (c == '"') {
                    st = St::Str;
                    cooked[i] = ' ';
                } else if (c == '\'') {
                    // A quote glued to an identifier/digit char is a
                    // C++14 digit separator (200'000), not a literal.
                    if (i > 0 && (std::isalnum(static_cast<unsigned char>(
                                      cooked[i - 1])) ||
                                  cooked[i - 1] == '_'))
                        cooked[i] = ' ';
                    else {
                        st = St::Chr;
                        cooked[i] = ' ';
                    }
                }
                break;
              case St::LineComment:
                cooked[i] = ' ';
                m[i] = 'c';
                break;
              case St::BlockComment:
                if (c == '*' && n == '/') {
                    cooked[i] = ' ';
                    cooked[i + 1] = ' ';
                    const char kind = blockOpenedHere ? 'c' : 'm';
                    for (std::size_t k = blockStart; k <= i + 1; ++k)
                        m[k] = kind;
                    ++i;
                    st = St::Code;
                } else {
                    cooked[i] = ' ';
                }
                break;
              case St::Str:
                if (c == '\\' && n != '\0') {
                    cooked[i] = ' ';
                    cooked[i + 1] = ' ';
                    ++i;
                } else if (c == '"') {
                    cooked[i] = ' ';
                    st = St::Code;
                } else {
                    cooked[i] = ' ';
                }
                break;
              case St::Chr:
                if (c == '\\' && n != '\0') {
                    cooked[i] = ' ';
                    cooked[i + 1] = ' ';
                    ++i;
                } else if (c == '\'') {
                    cooked[i] = ' ';
                    st = St::Code;
                } else {
                    cooked[i] = ' ';
                }
                break;
            }
        }
        if (st == St::LineComment || st == St::Str || st == St::Chr)
            st = St::Code; // neither literal kind legally spans lines
        if (st == St::BlockComment) {
            // Still open at EOL: everything covered on this line is
            // multi-line interior, never a suppression carrier.
            for (std::size_t k = blockStart; k < m.size(); ++k)
                m[k] = 'm';
        }
        out.code.push_back(std::move(cooked));
        out.mask.push_back(std::move(m));
    }

    for (std::size_t i = 0; i < out.raw.size(); ++i) {
        const std::string &raw = out.raw[i];
        const std::size_t tag = raw.find("dagger-lint:");
        if (tag == std::string::npos || out.mask[i][tag] != 'c')
            continue;
        auto allows = parseAllows(raw);
        if (allows.empty())
            continue;
        out.allows[i + 1].insert(allows.begin(), allows.end());
        // A comment-only allow line (blanked code is all whitespace)
        // also covers the next line.
        if (out.code[i].find_first_not_of(" \t") == std::string::npos)
            out.allows[i + 2].insert(allows.begin(), allows.end());
    }
    return true;
}

/** Word-boundary substring search within one code line. */
std::size_t
findToken(const std::string &line, const std::string &token,
          std::size_t from = 0)
{
    for (std::size_t pos = line.find(token, from); pos != std::string::npos;
         pos = line.find(token, pos + 1)) {
        const bool left_ok = pos == 0 || !isIdent(line[pos - 1]);
        const std::size_t end = pos + token.size();
        // Tokens ending in '(' or '<' carry their own right boundary.
        const char last = token.back();
        const bool right_ok = last == '(' || last == '<' ||
            end >= line.size() || !isIdent(line[end]);
        if (left_ok && right_ok)
            return pos;
        from = pos + 1;
    }
    return std::string::npos;
}

bool
codeContains(const FileText &ft, const std::string &token)
{
    for (const std::string &line : ft.code)
        if (findToken(line, token) != std::string::npos)
            return true;
    return false;
}

/** True when the path is simulator-proper code (under a src/ dir). */
bool
isSrcPath(const std::string &path)
{
    return path.find("src/") != std::string::npos;
}

/** True when this file may schedule events / register metrics. */
bool
isOrderSensitive(const FileText &ft)
{
    return codeContains(ft, "schedule(") || codeContains(ft, "scheduleAt(") ||
        codeContains(ft, "registerMetrics") || codeContains(ft, "MetricScope") ||
        codeContains(ft, "EventQueue") || codeContains(ft, "EventFn");
}

/**
 * Collect identifiers declared with an unordered_map/unordered_set
 * type in @p ft: after the keyword, skip one balanced <...> template
 * argument list, then accept `[&*] name` terminated by ; = { ( or ,.
 */
std::set<std::string>
unorderedNames(const FileText &ft)
{
    std::set<std::string> names;
    // Flatten so declarations split across lines still parse.
    std::string all;
    for (const std::string &line : ft.code) {
        all += line;
        all += '\n';
    }
    for (const char *kw : {"unordered_map", "unordered_set"}) {
        for (std::size_t pos = findToken(all, kw); pos != std::string::npos;
             pos = findToken(all, kw, pos + 1)) {
            std::size_t i = pos + std::strlen(kw);
            while (i < all.size() &&
                   std::isspace(static_cast<unsigned char>(all[i])))
                ++i;
            if (i < all.size() && all[i] == '<') {
                int depth = 0;
                for (; i < all.size(); ++i) {
                    if (all[i] == '<')
                        ++depth;
                    else if (all[i] == '>' && --depth == 0) {
                        ++i;
                        break;
                    }
                }
            }
            // Optional ref/pointer and whitespace, then the identifier.
            while (i < all.size() &&
                   (std::isspace(static_cast<unsigned char>(all[i])) ||
                    all[i] == '&' || all[i] == '*' || all[i] == ':'))
                ++i;
            std::string name;
            while (i < all.size() && isIdent(all[i]))
                name += all[i++];
            while (i < all.size() &&
                   std::isspace(static_cast<unsigned char>(all[i])))
                ++i;
            if (!name.empty() && i < all.size() &&
                (all[i] == ';' || all[i] == '=' || all[i] == '{' ||
                 all[i] == ',' || all[i] == ')'))
                names.insert(name);
        }
    }
    return names;
}

/** Last dotted/arrow/scope component of a range expression, or "". */
std::string
rangeLeaf(std::string expr)
{
    // Trim whitespace.
    const auto b = expr.find_first_not_of(" \t");
    const auto e = expr.find_last_not_of(" \t");
    if (b == std::string::npos)
        return {};
    expr = expr.substr(b, e - b + 1);
    if (expr.find('(') != std::string::npos)
        return {}; // function-call ranges are not resolvable here
    for (const char *sep : {"->", ".", "::"}) {
        const std::size_t pos = expr.rfind(sep);
        if (pos != std::string::npos)
            expr = expr.substr(pos + std::strlen(sep));
    }
    for (char c : expr)
        if (!isIdent(c))
            return {};
    return expr;
}

// ------------------------------ rules -----------------------------------

void
ruleNoWallclock(const FileText &ft, std::vector<Finding> &out)
{
    // sim/rng owns the one sanctioned seed-expansion path.
    if (ft.path.find("sim/rng") != std::string::npos)
        return;
    struct Pat
    {
        const char *token;
        const char *what;
    };
    static const Pat pats[] = {
        {"system_clock", "std::chrono::system_clock reads wall time"},
        {"steady_clock", "std::chrono::steady_clock reads host time"},
        {"high_resolution_clock", "high_resolution_clock reads host time"},
        {"gettimeofday", "gettimeofday reads wall time"},
        {"clock_gettime", "clock_gettime reads wall time"},
        {"time(", "time() reads wall time"},
        {"clock(", "clock() reads host CPU time"},
        {"rand(", "rand() draws from ambient global state"},
        {"srand(", "srand() seeds the banned global rand()"},
        {"random_device", "std::random_device reads ambient entropy"},
    };
    for (std::size_t i = 0; i < ft.code.size(); ++i) {
        for (const Pat &p : pats) {
            if (findToken(ft.code[i], p.token) == std::string::npos)
                continue;
            out.push_back({ft.path, i + 1, "no-wallclock",
                           std::string(p.what) +
                               "; simulation code must use sim::Tick "
                               "time and sim::Rng"});
            break; // one finding per line is enough
        }
    }
}

void
ruleSeededRngOnly(const FileText &ft, std::vector<Finding> &out)
{
    if (ft.path.find("sim/rng") != std::string::npos)
        return;
    static const char *pats[] = {
        "mt19937",
        "default_random_engine",
        "minstd_rand",
        "ranlux24",
        "ranlux48",
        "knuth_b",
        "uniform_int_distribution",
        "uniform_real_distribution",
        "normal_distribution",
        "bernoulli_distribution",
        "exponential_distribution",
    };
    for (std::size_t i = 0; i < ft.code.size(); ++i) {
        for (const char *p : pats) {
            if (findToken(ft.code[i], p) == std::string::npos)
                continue;
            out.push_back({ft.path, i + 1, "seeded-rng-only",
                           std::string("std <random> facility '") + p +
                               "' is not reproducible across platforms; "
                               "use the explicitly seeded sim::Rng"});
            break;
        }
    }
}

void
ruleNoUnorderedIteration(const FileText &ft, const FileText *header,
                         std::vector<Finding> &out)
{
    if (!isOrderSensitive(ft) && !(header && isOrderSensitive(*header)))
        return;
    std::set<std::string> names = unorderedNames(ft);
    if (header)
        names.merge(unorderedNames(*header));
    if (names.empty())
        return;
    for (std::size_t i = 0; i < ft.code.size(); ++i) {
        const std::string &line = ft.code[i];
        for (std::size_t pos = findToken(line, "for");
             pos != std::string::npos;
             pos = findToken(line, "for", pos + 1)) {
            std::size_t open = line.find('(', pos);
            if (open == std::string::npos)
                continue;
            // Find the ':' at depth 1 (skipping '::') and the matching
            // close paren; range-fors in this codebase fit one line.
            int depth = 0;
            std::size_t colon = std::string::npos;
            std::size_t close = std::string::npos;
            for (std::size_t j = open; j < line.size(); ++j) {
                const char c = line[j];
                if (c == '(')
                    ++depth;
                else if (c == ')' && --depth == 0) {
                    close = j;
                    break;
                } else if (c == ':' && depth == 1) {
                    if (j + 1 < line.size() && line[j + 1] == ':') {
                        ++j;
                    } else if (j > 0 && line[j - 1] == ':') {
                        // second half of '::', already skipped
                    } else if (colon == std::string::npos) {
                        colon = j;
                    }
                }
            }
            if (colon == std::string::npos || close == std::string::npos)
                continue;
            const std::string leaf =
                rangeLeaf(line.substr(colon + 1, close - colon - 1));
            if (leaf.empty() || names.find(leaf) == names.end())
                continue;
            out.push_back(
                {ft.path, i + 1, "no-unordered-iteration-order",
                 "range-for over unordered container '" + leaf +
                     "' in event-scheduling/metric-registering code; "
                     "iteration order is hash-dependent and feeds "
                     "nondeterminism into the run"});
        }
    }
}

void
ruleNoRawNew(const FileText &ft, std::vector<Finding> &out)
{
    // The rule polices the simulator proper; tests and benches may
    // use whatever gtest/benchmark idioms require.
    if (!isSrcPath(ft.path))
        return;
    for (std::size_t i = 0; i < ft.code.size(); ++i) {
        const std::string &line = ft.code[i];
        const std::size_t pos = findToken(line, "new");
        if (pos == std::string::npos)
            continue;
        // Immediate smart-pointer wraps are fine (the private-ctor
        // pattern unique_ptr<T>(new T(...)) has no make_unique form).
        if (line.find("unique_ptr") != std::string::npos ||
            line.find("shared_ptr") != std::string::npos)
            continue;
        out.push_back({ft.path, i + 1, "no-raw-new-in-sim",
                       "raw 'new' in simulator code; own allocations "
                       "via containers or std::make_unique so ASan/LSan "
                       "stay clean by construction"});
    }
}

void
ruleEventHandlerNoexcept(const FileText &ft, const FileText *header,
                         std::vector<Finding> &out)
{
    const bool schedules = codeContains(ft, "schedule(") ||
        codeContains(ft, "scheduleAt(") || codeContains(ft, "EventFn") ||
        (header &&
         (codeContains(*header, "schedule(") ||
          codeContains(*header, "scheduleAt(") ||
          codeContains(*header, "EventFn")));
    if (!schedules)
        return;
    for (std::size_t i = 0; i < ft.code.size(); ++i) {
        if (findToken(ft.code[i], "throw") == std::string::npos)
            continue;
        out.push_back({ft.path, i + 1, "event-handler-noexcept",
                       "'throw' in event-scheduling code; an exception "
                       "unwinding through EventQueue::runOne aborts the "
                       "run without simulation context — use "
                       "dagger_panic/dagger_fatal instead"});
    }
}

/**
 * shared-mutable-static-in-sim: a brace-scope walk over the blanked
 * code (namespace / class / everything else) that flags mutable
 * variable definitions at namespace scope and function-local statics.
 * Preprocessor lines are inert.
 */
void
ruleSharedMutableStatic(const FileText &ft, std::vector<Finding> &out)
{
    if (!isSrcPath(ft.path))
        return;
    // Flatten, blanking preprocessor lines (and their continuations).
    std::string flat;
    {
        std::size_t total = 0;
        for (const std::string &l : ft.code)
            total += l.size() + 1;
        flat.reserve(total);
    }
    bool cont = false;
    for (const std::string &cl : ft.code) {
        bool pre = cont;
        const std::size_t first = cl.find_first_not_of(" \t");
        if (!pre && first != std::string::npos && cl[first] == '#')
            pre = true;
        if (pre) {
            cont = !cl.empty() && cl.back() == '\\';
            flat.append(cl.size(), ' ');
        } else {
            cont = false;
            flat += cl;
        }
        flat += '\n';
    }

    struct Scope
    {
        enum Kind { Namespace, Class, Plain } kind = Plain;
        bool restore = false;
        std::vector<std::string> savedBuf;
    };

    std::vector<Scope> scopes;
    std::vector<std::string> buf; ///< tokens since the last ; { }
    bool sawParen = false;
    std::size_t line = 1;

    // Declaration capture: the declared name freezes at the first '='.
    bool eqSeen = false;
    std::string declName;
    std::size_t declIdents = 0;

    auto allNamespace = [&scopes] {
        for (const Scope &s : scopes)
            if (s.kind != Scope::Namespace)
                return false;
        return true;
    };
    auto bufHas = [&buf](const char *t) {
        return std::find(buf.begin(), buf.end(), t) != buf.end();
    };
    auto identCount = [&buf] {
        std::size_t n = 0;
        for (const std::string &t : buf)
            if (t != "::")
                ++n;
        return n;
    };
    auto clearStmt = [&] {
        buf.clear();
        sawParen = false;
        eqSeen = false;
        declName.clear();
        declIdents = 0;
    };
    // Keywords that disqualify a statement from being a plain mutable
    // variable definition (type definitions, aliases, immutability,
    // linkage declarations...).
    auto bannedForStatic = [&bufHas] {
        static const char *const kw[] = {
            "const", "constexpr", "constinit", "thread_local", "class",
            "struct", "enum", "union", "using", "typedef", "template",
            "extern", "friend", "static_assert", "namespace", "operator",
            "return", "public", "private", "protected",
        };
        for (const char *k : kw)
            if (bufHas(k))
                return true;
        return false;
    };

    for (std::size_t i = 0; i < flat.size(); ++i) {
        const char c = flat[i];
        if (c == '\n') {
            ++line;
            continue;
        }
        if (c == ' ' || c == '\t')
            continue;
        if (isIdentStart(c)) {
            std::size_t te = i;
            while (te < flat.size() && isIdent(flat[te]))
                ++te;
            buf.push_back(flat.substr(i, te - i));
            i = te - 1;
            continue;
        }
        switch (c) {
          case ':':
            if (i + 1 < flat.size() && flat[i + 1] == ':') {
                buf.push_back("::");
                ++i;
            }
            break;
          case '(':
            sawParen = true;
            break;
          case '=': {
            const char prev = i > 0 ? flat[i - 1] : '\0';
            const char next = i + 1 < flat.size() ? flat[i + 1] : '\0';
            if (!eqSeen && next != '=' && prev != '=' && prev != '!' &&
                prev != '<' && prev != '>' && prev != '+' && prev != '-' &&
                prev != '*' && prev != '/' && prev != '%' && prev != '&' &&
                prev != '|' && prev != '^') {
                eqSeen = true;
                if (!buf.empty() && buf.back() != "::") {
                    declName = buf.back();
                    declIdents = identCount();
                }
            }
            break;
          }
          case '{': {
            Scope s;
            if (bufHas("namespace")) {
                s.kind = Scope::Namespace;
            } else if (bufHas("enum") || bufHas("class") ||
                       bufHas("struct") || bufHas("union")) {
                s.kind = Scope::Class;
            } else {
                // Function bodies, control blocks, lambdas, and
                // initializer braces.
                s.kind = Scope::Plain;
                s.restore = !sawParen; // declaration brace-init
                s.savedBuf = buf;
            }
            scopes.push_back(std::move(s));
            clearStmt();
            break;
          }
          case '}': {
            bool restored = false;
            if (!scopes.empty()) {
                Scope s = std::move(scopes.back());
                scopes.pop_back();
                if (s.kind == Scope::Plain && s.restore) {
                    buf = std::move(s.savedBuf);
                    restored = true;
                }
            }
            if (!restored) {
                buf.clear();
                sawParen = false;
            }
            break;
          }
          case ';': {
            if (!sawParen && !bannedForStatic()) {
                const std::size_t nIdents =
                    eqSeen ? declIdents : identCount();
                const std::string name = eqSeen
                    ? declName
                    : (buf.empty() || buf.back() == "::" ? std::string()
                                                         : buf.back());
                const bool nsScope = allNamespace();
                const bool fnLocal = !nsScope && !scopes.empty() &&
                    scopes.back().kind == Scope::Plain && bufHas("static");
                if (!name.empty() && isIdentStart(name[0])) {
                    if (nsScope && nIdents >= 2) {
                        out.push_back(
                            {ft.path, line, "shared-mutable-static-in-sim",
                             "namespace-scope mutable state '" + name +
                                 "' is shared by every simulation running "
                                 "on a --jobs thread; make it "
                                 "const/constexpr, thread_local, or "
                                 "per-system state"});
                    } else if (fnLocal && nIdents >= 3) {
                        out.push_back(
                            {ft.path, line, "shared-mutable-static-in-sim",
                             "function-local static '" + name +
                                 "' is created and mutated concurrently "
                                 "by simulations on --jobs threads; hoist "
                                 "it into an owned object, or make it "
                                 "const/constexpr or thread_local"});
                    }
                }
            }
            clearStmt();
            break;
          }
          default:
            break;
        }
    }
}

void
ruleNoPayloadMemcpy(const FileText &ft, std::vector<Finding> &out)
{
    // Polices the simulator proper.  src/proto/ is the one sanctioned
    // home for payload byte copies: PayloadBuf's constructors count
    // every copied byte into sim.payload.bytes_copied, so a raw
    // memcpy elsewhere is both a needless copy and an uncounted one.
    // Tests, benches and examples are exempt (they build fixtures).
    if (ft.path.find("src/") == std::string::npos)
        return;
    if (ft.path.find("src/proto/") != std::string::npos)
        return;
    // Heuristic: the copy must touch message bytes.  POD field builds
    // (memcpy into a request struct's key/value members) stay legal.
    static const char *hints[] = {"payload", "Payload", "response",
                                  "Response", "frame", "Frame"};
    for (std::size_t i = 0; i < ft.code.size(); ++i) {
        const std::string &line = ft.code[i];
        if (findToken(line, "memcpy") == std::string::npos &&
            findToken(line, "memmove") == std::string::npos)
            continue;
        bool touchesPayload = false;
        for (const char *h : hints) {
            if (line.find(h) != std::string::npos) {
                touchesPayload = true;
                break;
            }
        }
        if (!touchesPayload)
            continue;
        out.push_back(
            {ft.path, i + 1, "no-payload-memcpy",
             "raw memcpy/memmove of payload bytes outside src/proto/; "
             "pass proto::PayloadBuf/PayloadView handles (or build "
             "fresh bytes via PayloadBuf::ofPod) so copies stay "
             "counted in sim.payload.bytes_copied"});
    }
}

// ----------------------------- driver -----------------------------------

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Per-file pass-2 result, merged in input order for determinism. */
struct ScanResult
{
    std::vector<Finding> findings;
    std::size_t suppressed = 0;
};

ScanResult
scanOne(const FileText &ft, const FileText *header,
        const std::set<std::string> &active)
{
    std::vector<Finding> fileFindings;
    if (active.count("no-wallclock"))
        ruleNoWallclock(ft, fileFindings);
    if (active.count("seeded-rng-only"))
        ruleSeededRngOnly(ft, fileFindings);
    if (active.count("no-unordered-iteration-order"))
        ruleNoUnorderedIteration(ft, header, fileFindings);
    if (active.count("no-raw-new-in-sim"))
        ruleNoRawNew(ft, fileFindings);
    if (active.count("event-handler-noexcept"))
        ruleEventHandlerNoexcept(ft, header, fileFindings);
    if (active.count("no-payload-memcpy"))
        ruleNoPayloadMemcpy(ft, fileFindings);
    if (active.count("shared-mutable-static-in-sim"))
        ruleSharedMutableStatic(ft, fileFindings);

    ScanResult r;
    for (Finding &f : fileFindings) {
        const auto it = ft.allows.find(f.line);
        if (it != ft.allows.end() &&
            (it->second.count("all") || it->second.count(f.rule))) {
            ++r.suppressed;
            continue;
        }
        r.findings.push_back(std::move(f));
    }
    return r;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--json] [--rule NAME]... [--list-rules] "
                 "PATH...\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    std::set<std::string> active(kAllRules.begin(), kAllRules.end());
    std::set<std::string> requested;
    std::vector<fs::path> roots;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--json") {
            json = true;
        } else if (a == "--rule" && i + 1 < argc) {
            requested.insert(argv[++i]);
        } else if (a.rfind("--rule=", 0) == 0) {
            requested.insert(a.substr(7));
        } else if (a == "--list-rules") {
            for (const std::string &r : kAllRules)
                std::printf("%s\n", r.c_str());
            return 0;
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!a.empty() && a[0] == '-') {
            return usage(argv[0]);
        } else {
            roots.emplace_back(a);
        }
    }
    if (roots.empty())
        return usage(argv[0]);
    if (!requested.empty()) {
        for (const std::string &r : requested) {
            if (std::find(kAllRules.begin(), kAllRules.end(), r) ==
                kAllRules.end()) {
                std::fprintf(stderr, "dagger_lint: unknown rule '%s'\n",
                             r.c_str());
                return 2;
            }
        }
        active = requested;
    }

    // Collect .cc/.hh files, sorted for deterministic output.
    std::vector<fs::path> files;
    for (const fs::path &root : roots) {
        std::error_code ec;
        if (fs::is_directory(root, ec)) {
            for (fs::recursive_directory_iterator it(root, ec), end;
                 it != end && !ec; it.increment(ec)) {
                if (!it->is_regular_file())
                    continue;
                const std::string ext = it->path().extension().string();
                if (ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
                    ext == ".hpp" || ext == ".h")
                    files.push_back(it->path());
            }
        } else if (fs::is_regular_file(root, ec)) {
            files.push_back(root);
        } else {
            std::fprintf(stderr, "dagger_lint: cannot read %s\n",
                         root.generic_string().c_str());
            return 2;
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    // Load every scanned file into the cache exactly once; paired
    // headers (a .cc's same-stem .hh) are pulled into the same cache,
    // so a header shared with the scan set is read from disk a single
    // time instead of once per consulting TU.
    std::map<std::string, FileText> cache;
    for (const fs::path &p : files) {
        const std::string key = p.generic_string();
        if (cache.count(key))
            continue;
        FileText ft;
        if (!loadFile(p, ft)) {
            std::fprintf(stderr, "dagger_lint: cannot read %s\n",
                         key.c_str());
            return 2;
        }
        cache.emplace(key, std::move(ft));
    }
    // Scan in sorted input order.  A .cc also consults its same-stem
    // header, pulled into the cache on first use.
    std::vector<Finding> findings;
    std::size_t suppressed = 0;
    for (const fs::path &p : files) {
        const FileText *header = nullptr;
        if (p.extension() == ".cc" || p.extension() == ".cpp") {
            fs::path hh = p;
            hh.replace_extension(".hh");
            const std::string hkey = hh.generic_string();
            auto it = cache.find(hkey);
            if (it == cache.end()) {
                std::error_code ec;
                if (fs::is_regular_file(hh, ec)) {
                    FileText ft;
                    if (loadFile(hh, ft))
                        it = cache.emplace(hkey, std::move(ft)).first;
                }
            }
            if (it != cache.end())
                header = &it->second;
        }
        ScanResult r = scanOne(cache.at(p.generic_string()), header, active);
        suppressed += r.suppressed;
        for (Finding &f : r.findings)
            findings.push_back(std::move(f));
    }

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });

    if (json) {
        std::string out = "{\n\"findings\": [";
        for (std::size_t i = 0; i < findings.size(); ++i) {
            const Finding &f = findings[i];
            out += i == 0 ? "\n  " : ",\n  ";
            out += "{\"file\": \"" + jsonEscape(f.file) +
                "\", \"line\": " + std::to_string(f.line) +
                ", \"rule\": \"" + jsonEscape(f.rule) +
                "\", \"message\": \"" + jsonEscape(f.message) + "\"}";
        }
        out += findings.empty() ? "],\n" : "\n],\n";
        out += "\"files_scanned\": " + std::to_string(files.size()) + ",\n";
        out += "\"suppressed\": " + std::to_string(suppressed) + ",\n";
        out += "\"rules\": [";
        std::size_t i = 0;
        for (const std::string &r : kAllRules) {
            if (!active.count(r))
                continue;
            out += i++ == 0 ? "\"" : ", \"";
            out += jsonEscape(r) + "\"";
        }
        out += "],\n";
        out += std::string("\"ok\": ") +
            (findings.empty() ? "true" : "false") + "\n}\n";
        std::fputs(out.c_str(), stdout);
    } else {
        for (const Finding &f : findings)
            std::printf("%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                        f.rule.c_str(), f.message.c_str());
        std::printf("dagger_lint: %zu file(s), %zu finding(s), "
                    "%zu suppressed\n",
                    files.size(), findings.size(), suppressed);
    }
    return findings.empty() ? 0 : 1;
}
