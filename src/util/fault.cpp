#include "util/fault.hpp"

#include <sstream>

namespace mc {

const char* to_string(FaultCode code) {
  switch (code) {
    case FaultCode::kReadFault:
      return "read-fault";
    case FaultCode::kTranslationFault:
      return "translation-fault";
    case FaultCode::kNoAddressSpace:
      return "no-address-space";
    case FaultCode::kDebugBlockMissing:
      return "debug-block-missing";
    case FaultCode::kDomainGone:
      return "domain-gone";
    case FaultCode::kUnrecognizedBuild:
      return "unrecognized-build";
    case FaultCode::kLoaderListCycle:
      return "loader-list-cycle";
  }
  return "unknown-fault";
}

const char* to_string(CheckStage stage) {
  switch (stage) {
    case CheckStage::kAcquire:
      return "acquire";
    case CheckStage::kParse:
      return "parse";
    case CheckStage::kNormalize:
      return "normalize";
    case CheckStage::kCompare:
      return "compare";
    case CheckStage::kVote:
      return "vote";
    case CheckStage::kService:
      return "service";
  }
  return "unknown-stage";
}

std::string format_fault(const FaultRecord& record) {
  std::ostringstream os;
  os << "Dom" << record.domain << " " << to_string(record.stage);
  if (record.attempt != 0) {
    os << " attempt " << record.attempt;
  }
  os << ": " << to_string(record.code);
  if (record.va != 0) {
    os << " at va=0x" << std::hex << record.va << std::dec;
  }
  if (record.pa != 0) {
    os << " pa=0x" << std::hex << record.pa << std::dec;
  }
  if (!record.detail.empty()) {
    os << " — " << record.detail;
  }
  return os.str();
}

}  // namespace mc
