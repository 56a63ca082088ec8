// Head-movement traces: the (timestamp, viewing-center) series recorded by a
// headset at a fixed sampling rate (50 Hz in the dataset the paper uses).
//
// A HeadTrace is what every downstream consumer sees — the Ptile clusterer,
// the ridge-regression viewport predictor, the switching-speed model (Eq. 5)
// and the streaming simulator. Traces can come from the built-in synthesizer
// (trace/head_synth.h) or be loaded from CSV in the dataset's (t, x, y)
// form, so the real dataset can be swapped in.
#pragma once

#include <cstddef>
#include <filesystem>
#include <vector>

#include "geometry/viewport.h"
#include "util/units.h"

namespace ps360::trace {

struct HeadSample {
  double t = 0.0;  // seconds from video start
  geometry::EquirectPoint center;
};

class HeadTrace {
 public:
  // Samples must be non-empty and strictly increasing in time.
  HeadTrace(int video_id, int user_id, std::vector<HeadSample> samples);

  int video_id() const { return video_id_; }
  int user_id() const { return user_id_; }
  const std::vector<HeadSample>& samples() const { return samples_; }
  double duration() const { return samples_.back().t; }

  // Viewing center at time t (clamped to the trace's time range), linearly
  // interpolated with longitude-wraparound awareness.
  geometry::EquirectPoint center_at(double t) const;

  // The user's viewport at time t with the given FoV.
  geometry::Viewport viewport_at(double t,
                                 util::Degrees fov = util::Degrees(100.0)) const;

  // Mean viewing center over the samples in [t0, t1] (wrap-aware circular
  // mean on x). Like switching_speed, visits only the window's samples.
  geometry::EquirectPoint mean_center(double t0, double t1) const;

  // Eq. 5 view-switching speed (degrees/second) averaged over [t0, t1]:
  // total great-circle path length between consecutive samples divided by
  // the elapsed time. The path is summed left to right: the piece from the
  // interpolated center at t0 to the first sample inside the window, the
  // steps between the window's samples, and the piece to the center at t1.
  double switching_speed(double t0, double t1) const;

  // Step table for switching_speed: the great-circle distance (degrees)
  // between every pair of consecutive samples, computed once. With it,
  // switching_speed computes only its two interpolated end pieces per call
  // and reads the interior steps, in the same order and bit-identical to
  // deriving them from the samples. Costs 8 bytes per sample, so it is
  // built only for traces that are scanned over and over (VideoWorkload
  // builds it for the test users its sessions replay); a trace without a
  // table, or with fewer than two samples, derives each step on the fly.
  void build_step_table();
  bool has_step_table() const { return !step_deg_.empty(); }

  // Instantaneous switching speeds for every consecutive sample pair; used
  // to build the Fig. 5 distribution.
  std::vector<double> switching_speed_series() const;

 private:
  // Binary searches bounding a time window: the first sample with t' >= t,
  // and the first with t' > t.
  std::vector<HeadSample>::const_iterator first_at_or_after(double t) const;
  std::vector<HeadSample>::const_iterator first_after(double t) const;

  // Great-circle distance between samples j and j + 1, from the step table
  // if there is one.
  double step_deg(std::size_t j) const;

  int video_id_;
  int user_id_;
  std::vector<HeadSample> samples_;
  std::vector<double> step_deg_;  // empty unless build_step_table() ran
};

// CSV persistence. Columns: t,x,y (header included on write).
void save_head_trace(const std::filesystem::path& path, const HeadTrace& trace);
HeadTrace load_head_trace(const std::filesystem::path& path, int video_id, int user_id);

}  // namespace ps360::trace
