// Power / energy unit conversions.
//
// The channel works in dBm (logarithmic) while energy bookkeeping works in
// milliwatts and microjoules; keeping the conversions in one place avoids the
// classic dBm-vs-dB bugs.
#pragma once

namespace wsnlink::util {

/// Converts power in dBm to milliwatts.
[[nodiscard]] double DbmToMilliwatt(double dbm) noexcept;

/// Converts power in milliwatts to dBm. Requires mw > 0.
[[nodiscard]] double MilliwattToDbm(double mw);

/// Adds two powers expressed in dBm (i.e. converts to linear, sums, and
/// converts back). Used to combine noise floor and interference.
[[nodiscard]] double AddPowersDbm(double a_dbm, double b_dbm);

/// Ratio of two powers in dB: signal_dbm - noise_dbm.
[[nodiscard]] constexpr double SnrDb(double signal_dbm, double noise_dbm) noexcept {
  return signal_dbm - noise_dbm;
}

/// Converts a dB value to a linear ratio.
[[nodiscard]] double DbToLinear(double db) noexcept;

constexpr double kMicrosecondsPerSecond = 1e6;
constexpr double kBitsPerByte = 8.0;

}  // namespace wsnlink::util
