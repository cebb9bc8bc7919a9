#include "detect/scheme.hpp"

namespace arpsec::detect {

std::string to_string(CostBand c) {
    switch (c) {
        case CostBand::kNone: return "none";
        case CostBand::kLow: return "low";
        case CostBand::kMedium: return "medium";
        case CostBand::kHigh: return "high";
    }
    return "?";
}

std::string to_string(Vantage v) {
    switch (v) {
        case Vantage::kNone: return "";
        case Vantage::kHost: return "host";
        case Vantage::kHostCooperative: return "host (cooperative)";
        case Vantage::kHostServer: return "host+server";
        case Vantage::kSwitch: return "switch";
        case Vantage::kMonitor: return "monitor";
    }
    return "?";
}

}  // namespace arpsec::detect
