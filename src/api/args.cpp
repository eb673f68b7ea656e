#include "api/args.h"

#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace p10ee::api {

using common::Error;
using common::Status;

namespace {

/** Strict base-10 u64 parse: the whole string or nothing. */
bool
parseU64(const char* s, uint64_t& out)
{
    if (s == nullptr || *s == '\0' || *s == '-' || *s == '+')
        return false;
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0')
        return false;
    out = v;
    return true;
}

} // namespace

ArgParser::ArgParser(std::string tool, std::string summary)
    : tool_(std::move(tool)), summary_(std::move(summary))
{}

ArgParser&
ArgParser::str(const std::string& name, std::string* out,
               const std::string& metavar, const std::string& help)
{
    // help() adds the brackets; a bracketed metavar would print twice.
    P10_ASSERT(metavar.find_first_of("<>") == std::string::npos,
               "ArgParser::str: pass a bare metavar (no '<' or '>')");
    Flag f;
    f.name = name;
    f.kind = Kind::Str;
    f.metavar = metavar;
    f.help = help;
    f.strOut = out;
    flags_.push_back(std::move(f));
    return *this;
}

ArgParser&
ArgParser::u64(const std::string& name, uint64_t* out,
               const std::string& help, uint64_t min, uint64_t max,
               bool* wasSet)
{
    Flag f;
    f.name = name;
    f.kind = Kind::U64;
    f.metavar = "n";
    f.help = help;
    f.u64Out = out;
    f.u64Min = min;
    f.u64Max = max;
    f.wasSet = wasSet;
    flags_.push_back(std::move(f));
    return *this;
}

ArgParser&
ArgParser::intRange(const std::string& name, int* out, int min, int max,
                    const std::string& help)
{
    Flag f;
    f.name = name;
    f.kind = Kind::Int;
    f.metavar = "n";
    f.help = help;
    f.intOut = out;
    f.intMin = min;
    f.intMax = max;
    flags_.push_back(std::move(f));
    return *this;
}

ArgParser&
ArgParser::boolean(const std::string& name, bool* out,
                   const std::string& help)
{
    Flag f;
    f.name = name;
    f.kind = Kind::Bool;
    f.help = help;
    f.boolOut = out;
    flags_.push_back(std::move(f));
    return *this;
}

ArgParser::Flag*
ArgParser::find(const std::string& name)
{
    for (Flag& f : flags_)
        if (f.name == name)
            return &f;
    return nullptr;
}

Status
ArgParser::parse(int argc, char** argv)
{
    helpRequested_ = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            helpRequested_ = true;
            return common::okStatus();
        }
        if (arg.rfind("--", 0) != 0)
            return Error::invalidArgument(
                "unexpected positional argument '" + arg + "'");
        Flag* f = find(arg);
        if (f == nullptr)
            return Error::invalidArgument("unknown option '" + arg +
                                          "' (see --help)");
        if (f->kind == Kind::Bool) {
            *f->boolOut = true;
            continue;
        }
        if (i + 1 >= argc)
            return Error::invalidArgument(arg + " needs a value");
        const char* value = argv[++i];
        switch (f->kind) {
          case Kind::Str:
            *f->strOut = value;
            break;
          case Kind::U64: {
            uint64_t v = 0;
            if (!parseU64(value, v) || v < f->u64Min || v > f->u64Max) {
                std::ostringstream os;
                os << arg << " must be an integer in [" << f->u64Min
                   << ",";
                if (f->u64Max == UINT64_MAX)
                    os << "inf";
                else
                    os << f->u64Max;
                os << "], got '" << value << "'";
                return Error::invalidArgument(os.str());
            }
            *f->u64Out = v;
            if (f->wasSet != nullptr)
                *f->wasSet = true;
            break;
          }
          case Kind::Int: {
            uint64_t v = 0;
            if (!parseU64(value, v) ||
                v < static_cast<uint64_t>(f->intMin) ||
                v > static_cast<uint64_t>(f->intMax))
                return Error::invalidArgument(
                    arg + " must be an integer in [" +
                    std::to_string(f->intMin) + "," +
                    std::to_string(f->intMax) + "], got '" + value +
                    "'");
            *f->intOut = static_cast<int>(v);
            break;
          }
          case Kind::Bool:
            break; // handled above
        }
    }
    return common::okStatus();
}

std::string
ArgParser::help() const
{
    std::ostringstream os;
    os << "usage: " << tool_ << " [options]\n";
    if (!summary_.empty())
        os << summary_ << "\n";
    os << "options:\n";
    for (const Flag& f : flags_) {
        std::string left = "  " + f.name;
        if (f.kind != Kind::Bool)
            left += " <" + f.metavar + ">";
        if (left.size() < 26)
            left.resize(26, ' ');
        else
            left += " ";
        os << left << f.help << "\n";
    }
    os << "  --help                  show this help and exit\n";
    return os.str();
}

namespace stdflags {

void
out(ArgParser& p, std::string* v)
{
    p.str("--out", v, "path",
          "write the machine-readable p10ee-report/1 JSON");
}

void
jobs(ArgParser& p, int* v)
{
    p.intRange("--jobs", v, 1, 256, "worker threads in [1,256]");
}

void
seed(ArgParser& p, uint64_t* v)
{
    p.u64("--seed", v,
          "perturb the workload seed (0: profile default)");
}

void
cacheDir(ArgParser& p, std::string* v)
{
    p.str("--cache-dir", v, "dir",
          "memoize shard results on disk; warm runs skip "
          "already-simulated shards");
}

void
instrs(ArgParser& p, uint64_t* v)
{
    p.u64("--instrs", v, "measured instructions (> 0)", 1);
}

void
warmup(ArgParser& p, uint64_t* v, bool* wasSet)
{
    p.u64("--warmup", v, "warmup instructions per thread", 0,
          UINT64_MAX, wasSet);
}

} // namespace stdflags

} // namespace p10ee::api
