//! Unit tests of the waveform capture log in [`crate::waves`]. They sit
//! in a test-only module under the capture's former name, `wavecap`, so
//! the test names stay stable across the module's rename.

#[cfg(test)]
mod tests {
    use crate::profile::StallCause;
    use crate::waves::*;

    #[test]
    fn value_changes_deduplicate() {
        let mut st = WaveState::new(1, 1, 1);
        st.record_out(0, 1, 5);
        st.record_out(0, 2, 5);
        st.record_out(0, 3, 6);
        st.record_out(0, 4, 5);
        let w = st.into_wave(10);
        assert_eq!(w.out_list(0), &[(1, 5), (3, 6), (4, 5)]);
        assert_eq!(w.num_changes(), 3);
        assert_eq!(w.cycles(), 10);
    }

    #[test]
    fn occupancy_tracks_depth() {
        let mut st = WaveState::new(0, 1, 0);
        st.record_occ_push(0, 1);
        st.record_occ_push(0, 2);
        st.record_occ_pop(0, 3);
        let w = st.into_wave(3);
        assert_eq!(w.occ_list(0), &[(1, 1), (2, 2), (3, 1)]);
    }

    #[test]
    fn stall_transitions_deduplicate_and_start_ready() {
        let mut st = WaveState::new(0, 0, 1);
        st.record_stall(0, 1, 0); // ready → ready: not a transition
        st.record_stall(0, 2, 1);
        st.record_stall(0, 3, 1);
        st.record_stall(0, 4, 0);
        let w = st.into_wave(4);
        assert_eq!(w.stall_list(0), &[(2, 1), (4, 0)]);
    }

    #[test]
    fn out_of_range_accessors_are_empty() {
        let w = Wave::default();
        assert!(w.out_list(3).is_empty());
        assert!(w.fire_list(0).is_empty());
        assert_eq!(w.num_signals(), 0);
        assert_eq!(w.summary_json(), "{\"signals\":0,\"changes\":0,\"cycles\":0}");
    }

    #[test]
    fn stall_codes_round_trip_labels() {
        assert_eq!(stall_code(None), 0);
        assert_eq!(stall_code(Some(StallCause::OutputSpace)), 5);
        assert_eq!(stall_label(4), "lsq");
    }

    /// The per-signal change-list store the log replaced, kept as the
    /// reference semantics for the decode.
    #[derive(Default)]
    struct Reference {
        out: Vec<Vec<(u64, i64)>>,
        occ: Vec<Vec<(u64, u16)>>,
        fire: Vec<Vec<u64>>,
        stall: Vec<Vec<(u64, u8)>>,
        pred: Vec<Vec<(u64, u8)>>,
        changes: u64,
    }

    impl Reference {
        fn new(outs: usize, ins: usize, nodes: usize) -> Reference {
            Reference {
                out: vec![Vec::new(); outs],
                occ: vec![Vec::new(); ins],
                fire: vec![Vec::new(); nodes],
                stall: vec![Vec::new(); nodes],
                pred: vec![Vec::new(); nodes],
                changes: 0,
            }
        }

        fn out(&mut self, i: usize, t: u64, v: i64) {
            if self.out[i].last().map(|&(_, x)| x) != Some(v) {
                self.out[i].push((t, v));
                self.changes += 1;
            }
        }

        fn occ(&mut self, i: usize, t: u64, push: bool) {
            let d = self.occ[i].last().map_or(0, |&(_, d)| d);
            self.occ[i].push((t, if push { d + 1 } else { d.saturating_sub(1) }));
            self.changes += 1;
        }

        fn fire(&mut self, i: usize, t: u64) {
            self.fire[i].push(t);
            self.changes += 1;
        }

        fn stall(&mut self, i: usize, t: u64, c: u8) {
            if self.stall[i].last().map_or(0, |&(_, x)| x) != c {
                self.stall[i].push((t, c));
                self.changes += 1;
            }
        }

        fn pred(&mut self, i: usize, t: u64, p: u8) {
            if self.pred[i].last().map(|&(_, x)| x) != Some(p) {
                self.pred[i].push((t, p));
                self.changes += 1;
            }
        }

        fn signals(&self) -> usize {
            fn live<T>(l: &[Vec<T>]) -> usize {
                l.iter().filter(|v| !v.is_empty()).count()
            }
            live(&self.out)
                + live(&self.occ)
                + live(&self.fire)
                + live(&self.stall)
                + live(&self.pred)
        }
    }

    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Random interleaved hook sequences decode to exactly what the
    /// per-signal store recorded: every view, both counts and the summary.
    /// Values come from a small range so deduplication fires; cycles take
    /// occasional jumps past 2^32 to exercise the escaped cycle marker.
    #[test]
    fn log_decode_matches_per_signal_reference() {
        let (outs, ins, nodes) = (5, 4, 3);
        for seed in 1..=64u64 {
            let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let mut st = WaveState::new(outs, ins, nodes);
            let mut re = Reference::new(outs, ins, nodes);
            let mut t = 0u64;
            let mut depth = vec![0u16; ins];
            for _ in 0..rng.below(400) {
                t += match rng.below(20) {
                    0 => 1 << 32,
                    1 => u64::from(ID_MASK) - 1 + rng.below(3),
                    2..=9 => rng.below(4),
                    _ => 0,
                };
                match rng.below(6) {
                    0 => {
                        let (i, v) = (rng.below(outs as u64) as usize, rng.below(5) as i64 - 2);
                        st.record_out(i, t, v);
                        re.out(i, t, v);
                    }
                    1 => {
                        let i = rng.below(ins as u64) as usize;
                        // Pops only of queued values, as the executor does.
                        let push = depth[i] == 0 || rng.below(2) == 0;
                        if push {
                            st.record_occ_push(i, t);
                            depth[i] += 1;
                        } else {
                            st.record_occ_pop(i, t);
                            depth[i] -= 1;
                        }
                        re.occ(i, t, push);
                    }
                    2 => {
                        let i = rng.below(nodes as u64) as usize;
                        st.record_fire(i, t);
                        re.fire(i, t);
                    }
                    3 | 4 => {
                        let (i, c) = (rng.below(nodes as u64) as usize, rng.below(3) as u8);
                        st.record_stall(i, t, c);
                        re.stall(i, t, c);
                    }
                    _ => {
                        let (i, p) = (rng.below(nodes as u64) as usize, rng.below(2) == 1);
                        st.record_pred(i, t, p);
                        re.pred(i, t, u8::from(p));
                    }
                }
            }
            let w = st.into_wave(t);
            for i in 0..outs {
                assert_eq!(w.out_list(i), &re.out[i][..], "seed {seed}: out {i}");
            }
            for i in 0..ins {
                assert_eq!(w.occ_list(i), &re.occ[i][..], "seed {seed}: occ {i}");
            }
            for i in 0..nodes {
                assert_eq!(w.fire_list(i), &re.fire[i][..], "seed {seed}: fire {i}");
                assert_eq!(w.stall_list(i), &re.stall[i][..], "seed {seed}: stall {i}");
                assert_eq!(w.pred_list(i), &re.pred[i][..], "seed {seed}: pred {i}");
            }
            assert_eq!(w.num_changes(), re.changes, "seed {seed}");
            assert_eq!(w.num_signals(), re.signals(), "seed {seed}");
            assert_eq!(
                w.summary_json(),
                format!(
                    "{{\"signals\":{},\"changes\":{},\"cycles\":{t}}}",
                    re.signals(),
                    re.changes
                ),
                "seed {seed}"
            );
        }
    }

    /// A mark taken mid-run scans exactly the records appended after it,
    /// with their cycles, even across an escaped marker.
    #[test]
    fn records_since_a_mark_see_only_the_suffix() {
        let mut st = WaveState::new(1, 0, 2);
        st.record_fire(0, 3);
        st.record_out(0, 3, -7);
        let m = st.mark();
        st.record_fire(1, 3);
        st.record_stall(0, 5 << 32, 2);
        st.record_out(0, (5 << 32) + 1, i64::MIN);
        let suffix: Vec<_> = st.records_since(m).collect();
        assert_eq!(
            suffix,
            [
                (3, Rec::Fire(1)),
                (5 << 32, Rec::Stall(0, 2)),
                ((5 << 32) + 1, Rec::Out(0, i64::MIN))
            ]
        );
        let w = st.into_wave(6 << 32);
        assert_eq!(w.records_since(m).collect::<Vec<_>>(), suffix);
        assert_eq!(w.out_list(0), &[(3, -7), ((5 << 32) + 1, i64::MIN)]);
    }
}
