//! Trajectory storage: the frames a simulation command returns to the
//! Copernicus controller.
//!
//! The paper saves coordinates every 50 ps, giving 1000 conformations per
//! 50 ns trajectory; [`Trajectory`] is the in-memory (and serialized)
//! equivalent of that `.xtc` output.

use crate::jsonv::{self, Block, List};
use crate::vec3::Vec3;

jsonv::record! {
    /// A sequence of coordinate frames with their simulation times. On
    /// the wire: `{"times": <f64 block>, "frames": [<frame block>, ...]}`;
    /// frames of different bead counts or times that run backwards do not
    /// read.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct Trajectory {
        frames: Vec<Vec<Vec3>> as List<Block>,
        times: Vec<f64> as Block,
    }
    check Trajectory::check;
}

impl Trajectory {
    pub fn new() -> Self {
        Trajectory::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        Trajectory {
            frames: Vec::with_capacity(n),
            times: Vec::with_capacity(n),
        }
    }

    /// Append a frame. Panics where [`Trajectory::try_push`] errs.
    pub fn push(&mut self, time: f64, frame: Vec<Vec3>) {
        if let Err(e) = self.try_push(time, frame) {
            panic!("{e}");
        }
    }

    /// Append a frame if it has the bead count of the frames before it
    /// and a time no earlier than theirs.
    pub fn try_push(&mut self, time: f64, frame: Vec<Vec3>) -> Result<(), String> {
        follows(self.tail(), time, frame.len())?;
        self.frames.push(frame);
        self.times.push(time);
        Ok(())
    }

    /// Time and bead count of the last frame.
    fn tail(&self) -> Option<(f64, usize)> {
        Some((*self.times.last()?, self.frames.last()?.len()))
    }

    pub fn len(&self) -> usize {
        self.frames.len()
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    pub fn n_particles(&self) -> usize {
        self.frames.first().map_or(0, |f| f.len())
    }

    pub fn frame(&self, i: usize) -> &[Vec3] {
        &self.frames[i]
    }

    pub fn time(&self, i: usize) -> f64 {
        self.times[i]
    }

    pub fn times(&self) -> &[f64] {
        &self.times
    }

    pub fn frames(&self) -> &[Vec<Vec3>] {
        &self.frames
    }

    pub fn iter(&self) -> impl Iterator<Item = (f64, &[Vec3])> {
        self.times
            .iter()
            .copied()
            .zip(self.frames.iter().map(|f| f.as_slice()))
    }

    /// Append all frames of `other` (times must continue monotonically).
    pub fn extend(&mut self, other: &Trajectory) {
        for (t, f) in other.iter() {
            self.push(t, f.to_vec());
        }
    }

    /// Append `continuation` as the next segment of this trajectory:
    /// its frame 0 is the restart conformation (identical to our last
    /// frame) and is skipped, and its times — which restart near zero
    /// on the worker — are shifted to continue our clock.
    ///
    /// An empty receiver adopts the continuation whole, so the same
    /// call stitches both the first chunk of a lineage and every later
    /// one. A continuation that does not fit — another bead count, or
    /// shifted times that run backwards — is refused whole, leaving
    /// `self` unchanged.
    pub fn append_continuation(&mut self, continuation: &Trajectory) -> Result<(), String> {
        if continuation.is_empty() {
            return Ok(());
        }
        let (skip, t_offset) = match self.times.last() {
            None => (0, None),
            Some(&last) => (1, Some(last - continuation.time(0))),
        };
        let at = |t: f64| t_offset.map_or(t, |o| t + o);
        let mut tail = self.tail();
        for (t, f) in continuation.iter().skip(skip) {
            follows(tail, at(t), f.len())?;
            tail = Some((at(t), f.len()));
        }
        for (t, f) in continuation.iter().skip(skip) {
            self.push(at(t), f.to_vec());
        }
        Ok(())
    }

    fn check(&self) -> Result<(), String> {
        if self.times.len() != self.frames.len() {
            return Err(format!(
                "trajectory has {} times but {} frames",
                self.times.len(),
                self.frames.len()
            ));
        }
        let mut tail = None;
        for (t, f) in self.iter() {
            follows(tail, t, f.len())?;
            tail = Some((t, f.len()));
        }
        Ok(())
    }
}

/// Whether a frame of `n_beads` at `time` may follow a frame `tail`.
fn follows(tail: Option<(f64, usize)>, time: f64, n_beads: usize) -> Result<(), String> {
    let Some((last_t, last_n)) = tail else {
        return Ok(());
    };
    if last_n != n_beads {
        return Err(format!(
            "all frames must have the same particle count ({n_beads} after {last_n})"
        ));
    }
    // NaN compares as neither, and is refused like time travel.
    if time.partial_cmp(&last_t).is_none_or(|o| o.is_lt()) {
        return Err(format!(
            "frame times must be non-decreasing ({time} after {last_t})"
        ));
    }
    Ok(())
}

/// Split a segment of `total_steps` into `chunks` command-sized pieces,
/// each a non-zero multiple of `record_interval` (so every chunk ends
/// exactly on a recorded frame and the next chunk can restart from it).
/// The remainder lands on the last chunk. Fewer chunks are returned
/// when `total_steps` cannot fill the requested count.
pub fn chunk_steps(total_steps: u64, chunks: usize, record_interval: u64) -> Vec<u64> {
    assert!(record_interval > 0, "record_interval must be positive");
    assert!(
        total_steps.is_multiple_of(record_interval),
        "total_steps ({total_steps}) must be a multiple of record_interval ({record_interval})"
    );
    let n_records = total_steps / record_interval;
    let chunks = (chunks.max(1) as u64).min(n_records.max(1));
    let base = n_records / chunks;
    let extra = n_records % chunks;
    (0..chunks)
        .map(|i| {
            let records = base + if i < extra { 1 } else { 0 };
            records * record_interval
        })
        .filter(|&s| s > 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonv::Codec;
    use crate::vec3::v3;

    fn frame(x: f64) -> Vec<Vec3> {
        vec![v3(x, 0.0, 0.0), v3(0.0, x, 0.0)]
    }

    #[test]
    fn push_and_query() {
        let mut t = Trajectory::new();
        assert!(t.is_empty());
        t.push(0.0, frame(1.0));
        t.push(1.0, frame(2.0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.n_particles(), 2);
        assert_eq!(t.time(1), 1.0);
        assert_eq!(t.frame(1)[0], v3(2.0, 0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "same particle count")]
    fn rejects_mismatched_frames() {
        let mut t = Trajectory::new();
        t.push(0.0, frame(1.0));
        t.push(1.0, vec![Vec3::ZERO]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_time_travel() {
        let mut t = Trajectory::new();
        t.push(1.0, frame(1.0));
        t.push(0.5, frame(2.0));
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Trajectory::new();
        a.push(0.0, frame(1.0));
        let mut b = Trajectory::new();
        b.push(1.0, frame(2.0));
        b.push(2.0, frame(3.0));
        a.extend(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.times(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn json_text_roundtrip() {
        let mut t = Trajectory::new();
        t.push(0.0, frame(1.0));
        t.push(0.5, frame(1.5));
        let json = t.to_value().to_string();
        let back = Trajectory::from_value(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn value_roundtrip() {
        let mut t = Trajectory::new();
        t.push(0.0, frame(1.0));
        t.push(0.5, frame(1.5));
        let back = Trajectory::from_value(&t.to_value()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn value_rejects_length_mismatch() {
        let mut v = Trajectory::new().to_value();
        v["times"] = jsonv::f64_block_to_value(&[0.0]);
        assert!(Trajectory::from_value(&v).is_err());
    }

    #[test]
    fn value_rejects_what_push_would_panic_on() {
        let mut v = Trajectory::new().to_value();
        v["times"] = jsonv::f64_block_to_value(&[0.0, 1.0]);
        v["frames"] = List::<Block>::put(&vec![frame(1.0), vec![Vec3::ZERO]]);
        let e = Trajectory::from_value(&v).unwrap_err();
        assert!(e.contains("same particle count"), "{e}");
        v["times"] = jsonv::f64_block_to_value(&[1.0, 0.5]);
        v["frames"] = List::<Block>::put(&vec![frame(1.0), frame(2.0)]);
        let e = Trajectory::from_value(&v).unwrap_err();
        assert!(e.contains("non-decreasing"), "{e}");
        v["times"] = jsonv::f64_block_to_value(&[0.0, f64::NAN]);
        assert!(Trajectory::from_value(&v).is_err());
    }

    #[test]
    fn wire_shape_is_a_times_block_and_one_block_per_frame() {
        let mut t = Trajectory::new();
        t.push(0.0, frame(1.0));
        t.push(0.5, frame(1.5));
        let v = t.to_value();
        assert!(v["times"].as_str().is_some());
        let frames = v["frames"].as_array().unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].as_str().unwrap().len(), 2 * 32);
    }

    #[test]
    fn continuation_skips_restart_frame_and_shifts_times() {
        let mut a = Trajectory::new();
        a.push(0.0, frame(1.0));
        a.push(2.0, frame(2.0));
        // The worker restarts its clock: frame 0 duplicates a's end.
        let mut b = Trajectory::new();
        b.push(0.0, frame(2.0));
        b.push(1.0, frame(3.0));
        b.push(2.0, frame(4.0));
        a.append_continuation(&b).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a.times(), &[0.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.frame(2)[0], v3(3.0, 0.0, 0.0));
    }

    #[test]
    fn a_continuation_that_does_not_fit_is_refused_whole() {
        let mut a = Trajectory::new();
        a.push(0.0, frame(1.0));
        a.push(2.0, frame(2.0));
        let before = a.clone();
        // Built field by field: `push` refuses both.
        let beads = Trajectory {
            frames: vec![frame(2.0), frame(3.0), vec![Vec3::ZERO]],
            times: vec![0.0, 1.0, 2.0],
        };
        assert!(a.append_continuation(&beads).is_err());
        let backwards = Trajectory {
            frames: vec![frame(2.0), frame(3.0), frame(4.0)],
            times: vec![0.0, 1.0, 0.5],
        };
        assert!(a.append_continuation(&backwards).is_err());
        assert_eq!(a, before);
    }

    #[test]
    fn continuation_into_empty_adopts_whole() {
        let mut a = Trajectory::new();
        let mut b = Trajectory::new();
        b.push(0.0, frame(1.0));
        b.push(1.0, frame(2.0));
        a.append_continuation(&b).unwrap();
        assert_eq!(a.len(), 2);
        a.append_continuation(&Trajectory::new()).unwrap();
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn chunking_partitions_on_record_boundaries() {
        assert_eq!(chunk_steps(400, 4, 100), vec![100, 100, 100, 100]);
        // 10 records over 4 chunks: 3,3,2,2 records.
        assert_eq!(chunk_steps(1000, 4, 100), vec![300, 300, 200, 200]);
        // More chunks than records: clamps to one record per chunk.
        assert_eq!(chunk_steps(200, 8, 100), vec![100, 100]);
        // Single chunk is the whole segment.
        assert_eq!(chunk_steps(400, 1, 100), vec![400]);
        assert_eq!(chunk_steps(400, 1, 100).iter().sum::<u64>(), 400);
        assert_eq!(chunk_steps(1000, 3, 100).iter().sum::<u64>(), 1000);
    }
}
