#include "lrd/hurst.h"

namespace fullweb::lrd {

std::string to_string(HurstMethod method) {
  switch (method) {
    case HurstMethod::kVarianceTime: return "Variance";
    case HurstMethod::kRoverS: return "R/S";
    case HurstMethod::kPeriodogram: return "Periodogram";
    case HurstMethod::kWhittle: return "Whittle";
    case HurstMethod::kAbryVeitch: return "Abry-Veitch";
  }
  return "?";
}

}  // namespace fullweb::lrd
