// `region`'s unit tests: the capture shard. `world.rs` splices this file
// into its `tests` module with `include!`, so each test keeps the
// `world::tests::` name it has always run under and uses that module's
// imports and `crate::fixture`'s nodes and worlds.

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(256))]

    /// Whatever order transmits arrive in — a region only ever sees
    /// them nearly sorted, this does not assume it — a shard ends up
    /// holding exactly the `limit` smallest `(tag, arrival)` keys.
    #[test]
    fn a_capture_shard_keeps_the_smallest_keys(
        tags in proptest::prop::collection::vec(arb_tag(), 0..120),
        limit in 0usize..20,
    ) {
        let mut region = Region::new(0);
        let packet: Arc<[u8]> = Arc::from(vec![7u8]);
        for (i, &tag) in tags.iter().enumerate() {
            region.capture(limit, tag, LinkId(i), NodeIdx(0), &packet);
        }
        let mut held: Vec<(Tag, u64)> = region.capture.iter().map(|c| c.key).collect();
        held.sort_unstable();
        let mut want: Vec<(Tag, u64)> = tags.iter().copied().zip(0u64..).collect();
        want.sort_unstable();
        want.truncate(limit);
        assert_eq!(held, want);
        // A record stayed with its key: the link was numbered by arrival.
        assert!(region.capture.iter().all(|c| c.rec.link.0 as u64 == c.key.1));
    }
}
