#pragma once

/// @file vehicle.hpp
/// A complete simulated vehicle: pose integration over road geometry.

#include "geom/frenet.hpp"
#include "geom/vec2.hpp"
#include "road/road.hpp"
#include "vehicle/lateral.hpp"
#include "vehicle/longitudinal.hpp"
#include "vehicle/params.hpp"

namespace scaa::vehicle {

/// Snapshot of the physical state of a vehicle (ground truth).
struct VehicleState {
  geom::Pose pose;           ///< world-frame position + heading
  double speed = 0.0;        ///< [m/s]
  double accel = 0.0;        ///< realized longitudinal accel [m/s^2]
  double steer_angle = 0.0;  ///< actuated road-wheel angle [rad]
  double yaw_rate = 0.0;     ///< [rad/s]
  double s = 0.0;            ///< Frenet arc length along the road [m]
  double d = 0.0;            ///< Frenet lateral offset, +left [m]
};

/// Actuator command set delivered to a vehicle every control cycle.
struct ActuatorCommand {
  double accel = 0.0;        ///< net longitudinal accel request [m/s^2]
  double steer_angle = 0.0;  ///< road-wheel angle request [rad]
};

/// Integrates a vehicle over a road. Owns its dynamics models; borrows the
/// road (must outlive the vehicle).
class Vehicle {
 public:
  /// Place the vehicle at arc length @p s0, lateral offset @p d0, with the
  /// road's local heading and initial @p speed.
  Vehicle(const road::Road& road, const VehicleParams& params, double s0,
          double d0, double speed);

  /// Re-place the vehicle exactly as the constructor does, reusing the
  /// existing storage: dynamics, Frenet hint, and state end up bit-identical
  /// to a freshly constructed Vehicle. No allocation.
  void reset(const road::Road& road, const VehicleParams& params, double s0,
             double d0, double speed);

  /// Advance one simulation step of @p dt seconds under @p cmd
  /// (integrate() followed by a self-contained Frenet refresh).
  void step(const ActuatorCommand& cmd, double dt);

  /// Advance dynamics and world pose only, WITHOUT refreshing the Frenet
  /// state. The caller must complete the step with refresh_frenet() — this
  /// split lets the World integrate every traffic vehicle of a tick before
  /// any of them is re-projected.
  void integrate(const ActuatorCommand& cmd, double dt);

  /// Complete an integrate() step: re-project state().pose.position onto
  /// the road, hinted by this vehicle's last projection.
  void refresh_frenet();

  /// Segment index of this vehicle's last projection
  /// (geom::Polyline::kNoSegmentHint before the first one). Seeds hinted
  /// road heading/curvature queries without a fresh segment search.
  std::size_t frenet_segment() const noexcept { return frenet_.hint_segment(); }

  /// Current ground-truth state.
  const VehicleState& state() const noexcept { return state_; }

  /// Physical parameters.
  const VehicleParams& params() const noexcept { return params_; }

  /// Immediately set speed (used by scripted lead-vehicle profiles).
  void set_speed(double speed) noexcept;

  /// True once speed has reached zero and no positive accel is commanded.
  bool stopped() const noexcept { return state_.speed <= 1e-3; }

 private:
  const road::Road* road_;
  VehicleParams params_;
  LongitudinalDynamics longitudinal_;
  LateralDynamics lateral_;
  geom::FrenetFrame frenet_;
  VehicleState state_;
};

/// Longitudinal gap between two vehicles on the same road, rear bumper of
/// @p lead minus front bumper of @p follower (negative = overlapping).
double bumper_gap(const VehicleState& follower, const VehicleParams& fp,
                  const VehicleState& lead, const VehicleParams& lp) noexcept;

}  // namespace scaa::vehicle
