/**
 * @file
 * Declarative CLI flag parsing shared by every front end.
 *
 * Before this existed, `p10sim_cli`, `p10sweep_cli` and the 19 bench
 * binaries each hand-rolled an argv loop — with drifting spellings for
 * the same report output and hand-maintained usage strings. ArgParser
 * is the one flag table: a tool registers typed flags (string / bounded
 * integer / boolean), each under exactly one spelling, and gets
 *
 *  - strict parsing into caller-owned variables, every malformed or
 *    unknown flag a structured `common::Error` (the CLIs translate
 *    that to the exit-2 contract; the library never aborts),
 *  - `--help` recognized everywhere, with the help text generated from
 *    the same table the parser matches against — spelling and
 *    documentation cannot drift apart.
 *
 * Canonical spellings shared across tools live in `stdflags` so each
 * front end registers the identical flag (same name, same bounds, same
 * help line) instead of a lookalike.
 */

#ifndef P10EE_API_ARGS_H
#define P10EE_API_ARGS_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"

namespace p10ee::api {

class ArgParser
{
  public:
    /** @param tool binary name for usage/help; @param summary one-line
        description shown at the top of --help. */
    ArgParser(std::string tool, std::string summary);

    /** String-valued flag; @p metavar names the value in help, bare
        (help() adds the brackets; a '<' or '>' in it asserts). */
    ArgParser& str(const std::string& name, std::string* out,
                   const std::string& metavar, const std::string& help);

    /** Unsigned-integer flag, bounded to [@p min, @p max]. When
        @p wasSet is non-null it records whether the flag appeared (for
        "override the default only if given" semantics). */
    ArgParser& u64(const std::string& name, uint64_t* out,
                   const std::string& help, uint64_t min = 0,
                   uint64_t max = UINT64_MAX, bool* wasSet = nullptr);

    /** Bounded int flag (the --jobs/--smt shape). */
    ArgParser& intRange(const std::string& name, int* out, int min,
                        int max, const std::string& help);

    /** Value-less boolean flag (present = true). */
    ArgParser& boolean(const std::string& name, bool* out,
                       const std::string& help);

    /**
     * Parse @p argv. Returns a structured error for unknown flags,
     * missing values, malformed or out-of-range numbers, and bare
     * positional arguments — never exits and never throws. `--help`
     * (and `-h`) set helpRequested() and stop parsing successfully.
     */
    common::Status parse(int argc, char** argv);

    /** True when --help/-h was seen by the last parse(). */
    bool helpRequested() const { return helpRequested_; }

    /** Usage + per-flag help generated from the registered table. */
    std::string help() const;

    /** The tool name given at construction. */
    const std::string& tool() const { return tool_; }

  private:
    enum class Kind { Str, U64, Int, Bool };

    struct Flag
    {
        std::string name;
        Kind kind = Kind::Str;
        std::string metavar;
        std::string help;

        std::string* strOut = nullptr;
        uint64_t* u64Out = nullptr;
        uint64_t u64Min = 0;
        uint64_t u64Max = UINT64_MAX;
        bool* wasSet = nullptr;
        int* intOut = nullptr;
        int intMin = 0;
        int intMax = 0;
        bool* boolOut = nullptr;
    };

    /** The registered flag spelled @p name, or nullptr. */
    Flag* find(const std::string& name);

    std::string tool_;
    std::string summary_;
    std::vector<Flag> flags_;
    bool helpRequested_ = false;
};

/**
 * Canonical cross-tool flags: every front end that supports the
 * concept registers it through these, so the spelling, bounds and help
 * text are identical everywhere.
 */
namespace stdflags {

/** --out <path>. */
void out(ArgParser& p, std::string* v);

/** --jobs <n> in [1,256]. */
void jobs(ArgParser& p, int* v);

/** --seed <n>. */
void seed(ArgParser& p, uint64_t* v);

/** --cache-dir <dir>. */
void cacheDir(ArgParser& p, std::string* v);

/** --instrs <n> (> 0). */
void instrs(ArgParser& p, uint64_t* v);

/** --warmup <n>; @p wasSet optional presence flag. */
void warmup(ArgParser& p, uint64_t* v, bool* wasSet = nullptr);

} // namespace stdflags

} // namespace p10ee::api

#endif // P10EE_API_ARGS_H
