/**
 * @file
 * Machine-speed calibration for the host-time metrics.
 *
 * On a shared host the simulator's wall-clock rate drifts by up to 45%
 * over tens of minutes as other tenants load the machine, so raw wall
 * times from two sets of runs of the same code disagree by more than
 * any useful bound. A fixed kernel with the simulator's profile (a
 * binary-heap event queue popping events that scatter reads and writes
 * over a few MB) slows down with it; a register-only ALU loop does not.
 * Every repetition is followed by one run of the kernel, and the
 * repetition's host times are rescaled to the kernel's reference time.
 * The kernel is the benchmark's own code, so a change to the simulator
 * library never moves it.
 */

#ifndef PERFBENCH_CALIBRATE_HPP
#define PERFBENCH_CALIBRATE_HPP

namespace perfbench {

/**
 * Median wall time of calibrationSeconds() on the reference machine (a
 * 4-vCPU KVM guest, gcc 12.2.0, -O3). Host times are reported in these
 * reference seconds.
 */
constexpr double kCalibrationRefSeconds = 0.22;

/** Run the calibration kernel (fixed work) and return its wall time. */
double calibrationSeconds();

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_HPP
