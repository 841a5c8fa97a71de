#include "util/argparse.hh"

#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <sstream>

#include "util/logging.hh"

namespace darkside {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description))
{}

void
ArgParser::addOption(const std::string &name, const std::string &help,
                     const std::string &default_value)
{
    ds_assert(!options_.count(name));
    order_.push_back(name);
    options_[name] = Option{help, default_value, false, false};
}

void
ArgParser::addOption(const std::string &name, const std::string &help,
                     double default_value)
{
    ds_assert(!options_.count(name));
    order_.push_back(name);
    // Shortest rendering that parses back to the exact default. The
    // stream's default 6-significant-digit formatting turns a large
    // integer like 20260808 into "2.02608e+07", which getNumber would
    // read back as 20260800 (and getInt, pre-fix, as 2).
    std::ostringstream os;
    for (int precision = 6; precision <= 17; ++precision) {
        os.str("");
        os << std::setprecision(precision) << default_value;
        if (std::atof(os.str().c_str()) == default_value)
            break;
    }
    options_[name] = Option{help, os.str(), false, true};
}

void
ArgParser::addSwitch(const std::string &name, const std::string &help)
{
    ds_assert(!options_.count(name));
    order_.push_back(name);
    options_[name] = Option{help, "", true, false};
}

bool
ArgParser::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage().c_str(), stdout);
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(std::move(arg));
            continue;
        }
        arg = arg.substr(2);
        std::string value;
        bool has_value = false;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_value = true;
        }
        auto it = options_.find(arg);
        if (it == options_.end()) {
            std::fprintf(stderr, "unknown option --%s\n%s", arg.c_str(),
                         usage().c_str());
            return false;
        }
        if (it->second.isSwitch) {
            if (has_value) {
                std::fprintf(stderr, "switch --%s takes no value\n",
                             arg.c_str());
                return false;
            }
            // assign(), not = "1": gcc 12 flags the latter with a
            // false -Werror=restrict at -O3.
            it->second.value.assign(1, '1');
            continue;
        }
        if (!has_value) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "option --%s needs a value\n",
                             arg.c_str());
                return false;
            }
            value = argv[++i];
        }
        it->second.value = std::move(value);
    }
    return true;
}

const std::string &
ArgParser::get(const std::string &name) const
{
    auto it = options_.find(name);
    ds_assert(it != options_.end());
    return it->second.value;
}

double
ArgParser::getNumber(const std::string &name) const
{
    return std::atof(get(name).c_str());
}

std::int64_t
ArgParser::getInt(const std::string &name) const
{
    const std::string &text = get(name);
    char *end = nullptr;
    const long long integral = std::strtoll(text.c_str(), &end, 10);
    // A value only representable with a decimal point or an exponent
    // ("2.02608e+07", "2.5e3") would otherwise lose everything after
    // its integral prefix; reparse as a double and truncate, keeping
    // atoll's truncation semantics for plain decimals ("3.7" -> 3).
    if (end && (*end == '.' || *end == 'e' || *end == 'E')) {
        return static_cast<std::int64_t>(
            std::strtod(text.c_str(), nullptr));
    }
    return integral;
}

bool
ArgParser::getSwitch(const std::string &name) const
{
    auto it = options_.find(name);
    ds_assert(it != options_.end());
    ds_assert(it->second.isSwitch);
    return !it->second.value.empty();
}

std::string
ArgParser::usage() const
{
    std::ostringstream os;
    os << program_ << " — " << description_ << "\n\noptions:\n";
    for (const auto &name : order_) {
        const Option &opt = options_.at(name);
        os << "  --" << name;
        if (!opt.isSwitch)
            os << " <value>";
        os << "\n      " << opt.help;
        if (!opt.isSwitch && !opt.value.empty())
            os << " (default: " << opt.value << ")";
        os << "\n";
    }
    return os.str();
}

} // namespace darkside
