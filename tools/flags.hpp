/**
 * @file
 * Declarative command-line flags for `wss`.
 *
 * Every subcommand declares one table of Flag rows: name, type, help,
 * default and range. Opts parses a command line against that table
 * before anything runs. An unknown flag (the nearest valid one is
 * named), a missing or malformed value, a value given to a switch
 * and a flag given twice are all fatal(). The subcommand's `--help`
 * text and its run identity (every given flag except the output
 * paths) come from the same rows.
 */

#ifndef WSS_TOOLS_FLAGS_HPP
#define WSS_TOOLS_FLAGS_HPP

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/logging.hpp"
#include "util/parse.hpp"

namespace wss::cli {

/// What a flag takes. Path is text naming where an output goes; it
/// stays out of the run identity (the same run pointed at another
/// directory must hash identically). The list types, declared last,
/// take a comma-separated value.
enum class Type
{
    Switch,
    Int,
    Real,
    Text,
    Path,
    Choice,
    Ints,
    Reals,
    Texts
};

/// One row of a flag table, written as an aggregate:
///   {"vcs", Int, "virtual channels per router port", "16", 1, 32767}
struct Flag
{
    std::string name;
    Type type = Type::Switch;
    std::string help = {};
    /// Default as command-line text; empty = none.
    std::string def = {};
    /// Inclusive range of a numeric value or list element; an integer
    /// bound at or past 2^63 stands for INT64_MAX.
    double lo = 0.0, hi = 0.0;
    /// The values a Choice (or each Texts element) may take.
    std::vector<std::string> choices = {};
};

using Group = std::vector<Flag>;

inline const Flag *
findFlag(const std::vector<Flag> &flags, const std::string &name)
{
    for (const Flag &f : flags)
        if (f.name == name)
            return &f;
    return nullptr;
}

/// One subcommand's table: @p groups concatenated in order (a name
/// already present is skipped, so a shared flag such as --seed may
/// sit in several groups), then @p defaults re-based for it.
inline std::vector<Flag>
table(std::initializer_list<Group> groups,
      std::map<std::string, std::string> defaults = {})
{
    std::vector<Flag> flags;
    for (const Group &group : groups)
        for (const Flag &f : group)
            if (!findFlag(flags, f.name))
                flags.push_back(f);
    for (Flag &f : flags)
        if (defaults.count(f.name))
            f.def = defaults.extract(f.name).mapped();
    if (!defaults.empty())
        panic("flag table: default for undeclared --",
              defaults.begin()->first);
    return flags;
}

/// The integer bounds of @p f.
inline std::pair<std::int64_t, std::int64_t>
intRange(const Flag &f)
{
    return {static_cast<std::int64_t>(f.lo),
            f.hi >= 0x1p63 ? INT64_MAX : static_cast<std::int64_t>(f.hi)};
}

inline std::int64_t
toInt(const Flag &f, const std::string &value)
{
    const auto [lo, hi] = intRange(f);
    return util::parseInt(value, ("--" + f.name).c_str(), lo, hi);
}

inline double
toReal(const Flag &f, const std::string &value)
{
    return util::parseDouble(value, ("--" + f.name).c_str(), f.lo, f.hi);
}

inline std::size_t
toChoice(const Flag &f, const std::string &value)
{
    const auto it = std::find(f.choices.begin(), f.choices.end(), value);
    if (it == f.choices.end()) {
        std::string all;
        for (const auto &c : f.choices)
            all += (all.empty() ? "" : " | ") + c;
        fatal("--", f.name, "='", value, "' is not one of ", all);
    }
    return static_cast<std::size_t>(it - f.choices.begin());
}

/// The elements of a list value (the value itself for a scalar);
/// fatal() on an empty element.
inline std::vector<std::string>
elements(const Flag &f, const std::string &value)
{
    if (f.type < Type::Ints)
        return {value};
    std::vector<std::string> items;
    std::istringstream list(value);
    for (std::string item; std::getline(list, item, ',');)
        items.push_back(item);
    if (value.empty() || value.back() == ',' ||
        std::count(items.begin(), items.end(), ""))
        fatal("--", f.name, "='", value, "' has an empty list element");
    return items;
}

/// fatal() unless @p value is a valid value of @p f.
inline void
check(const Flag &f, const std::string &value)
{
    for (const std::string &item : elements(f, value)) {
        if (f.type == Type::Int || f.type == Type::Ints)
            toInt(f, item);
        else if (f.type == Type::Real || f.type == Type::Reals)
            toReal(f, item);
        else if (!f.choices.empty())
            toChoice(f, item);
    }
}

/// Optimal-string-alignment distance: edits, with a swap of two
/// adjacent characters counting as one (so --vsc is next to --vcs).
inline std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::vector<std::size_t>> d(
        a.size() + 1, std::vector<std::size_t>(b.size() + 1));
    for (std::size_t i = 0; i <= a.size(); ++i)
        for (std::size_t j = 0; j <= b.size(); ++j) {
            d[i][j] = i == 0 || j == 0
                          ? i + j
                          : std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                                      d[i - 1][j - 1] +
                                          (a[i - 1] != b[j - 1])});
            if (i > 1 && j > 1 && a[i - 1] == b[j - 2] &&
                a[i - 2] == b[j - 1])
                d[i][j] = std::min(d[i][j], d[i - 2][j - 2] + 1);
        }
    return d[a.size()][b.size()];
}

class Opts;

struct Command
{
    std::string name;
    /// What it does, in one line.
    std::string about;
    std::vector<Flag> flags;
    int (*run)(const Opts &);
};

inline void
printHelp(const Command &cmd)
{
    static const char *const metavar[] = {
        "", " N", " X", " TEXT", " PATH", " NAME", " N,..", " X,..",
        " A,.."};
    std::cout << "usage: wss " << cmd.name << " [--flags]\n\n"
              << cmd.about << "\n\n";
    for (const Flag &f : cmd.flags) {
        std::ostringstream detail;
        if (!f.def.empty())
            detail << "; default " << f.def;
        if (f.type == Type::Int || f.type == Type::Ints)
            detail << "; " << intRange(f).first << ".."
                   << intRange(f).second;
        else if (f.type == Type::Real || f.type == Type::Reals)
            detail << "; " << f.lo << ".." << f.hi;
        for (std::size_t i = 0; i < f.choices.size(); ++i)
            detail << (i ? " | " : "; one of ") << f.choices[i];
        std::cout << "  " << std::left << std::setw(24)
                  << "--" + f.name + metavar[static_cast<int>(f.type)]
                  << ' ' << f.help
                  << (detail.str().empty()
                          ? ""
                          : " (" + detail.str().substr(2) + ")")
                  << "\n";
    }
}

/// A command line parsed and validated against one Command's table.
class Opts
{
  public:
    /// Parse argv[first..]. `--help` prints the generated help and
    /// exits 0 without running anything.
    Opts(const Command &cmd, int argc, char **argv, int first)
        : cmd_(cmd)
    {
        // A bad default is a table bug: let it die on every run.
        for (const Flag &f : cmd.flags)
            if (!f.def.empty())
                check(f, f.def);
        for (int i = first; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind("--", 0) != 0)
                fatal("wss ", cmd.name, ": unexpected argument '", arg,
                      "' (flags look like --key value)");
            const std::string name = arg.substr(2);
            if (name == "help") {
                printHelp(cmd);
                std::exit(0);
            }
            const Flag *f = findFlag(cmd.flags, name);
            if (!f)
                fatal("wss ", cmd.name, ": unknown flag ", arg,
                      "; did you mean --", nearest(name), "?");
            if (given_.count(name))
                fatal("wss ", cmd.name, ": ", arg, " is given twice");
            const bool has_value = i + 1 < argc && argv[i + 1][0] != '\0' &&
                                   std::strncmp(argv[i + 1], "--", 2) != 0;
            if (f->type == Type::Switch && has_value)
                fatal("wss ", cmd.name, ": ", arg,
                      " is a switch and takes no value, got '",
                      argv[i + 1], "'");
            if (f->type != Type::Switch && !has_value)
                fatal("wss ", cmd.name, ": ", arg, " needs a value");
            given_[name] = f->type == Type::Switch ? "" : argv[++i];
            check(*f, given_[name]);
        }
    }

    bool has(const std::string &name) const { return given_.count(name); }
    const std::string &text(const std::string &name) const
    {
        const auto it = given_.find(name);
        return it != given_.end() ? it->second : flag(name).def;
    }
    template <class T = std::int64_t>
    T integer(const std::string &n) const
    {
        return static_cast<T>(toInt(flag(n), text(n)));
    }
    double real(const std::string &n) const { return toReal(flag(n), text(n)); }
    /// Index of the value in the flag's choices.
    std::size_t choice(const std::string &n) const
    {
        return toChoice(flag(n), text(n));
    }
    std::vector<std::string> texts(const std::string &n) const
    {
        return elements(flag(n), text(n));
    }
    std::vector<std::int64_t> ints(const std::string &n) const
    {
        std::vector<std::int64_t> out;
        for (const auto &item : texts(n))
            out.push_back(toInt(flag(n), item));
        return out;
    }
    std::vector<double> reals(const std::string &n) const
    {
        std::vector<double> out;
        for (const auto &item : texts(n))
            out.push_back(toReal(flag(n), item));
        return out;
    }

    /// Every given flag except the output paths, verbatim: what
    /// identifies the run's configuration.
    std::map<std::string, std::string> identity() const
    {
        std::map<std::string, std::string> out;
        for (const auto &[name, value] : given_)
            if (flag(name).type != Type::Path)
                out[name] = value;
        return out;
    }

  private:
    /// The row of @p name; reading a flag the table does not declare
    /// is a bug in the subcommand.
    const Flag &flag(const std::string &name) const
    {
        const Flag *f = findFlag(cmd_.flags, name);
        if (!f)
            panic("wss ", cmd_.name, " reads undeclared flag --", name);
        return *f;
    }

    std::string nearest(const std::string &name) const
    {
        std::string best = "help";
        for (const Flag &f : cmd_.flags)
            if (editDistance(name, f.name) < editDistance(name, best))
                best = f.name;
        return best;
    }

    const Command &cmd_;
    std::map<std::string, std::string> given_;
};

} // namespace wss::cli

#endif // WSS_TOOLS_FLAGS_HPP
