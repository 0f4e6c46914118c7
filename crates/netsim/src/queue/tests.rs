// `queue`'s unit tests: the canonical `Tag`, the `EventQueue` and the dispatch sequence. `world.rs` splices this file
// into its `tests` module with `include!`, so each test keeps the
// `world::tests::` name it has always run under and uses that module's
// imports and `crate::fixture`'s nodes and worlds.

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(256))]

    /// The packed within-tick key orders exactly like the derived
    /// `Ord` on the tag, and loses nothing.
    #[test]
    fn sub_key_orders_like_the_tag_and_round_trips(a in arb_tag(), b in arb_tag()) {
        assert_eq!(Tag::from_sub_key(a.time, a.sub_key()), a);
        let (a0, b0) = (Tag { time: SimTime(0), ..a }, Tag { time: SimTime(0), ..b });
        assert_eq!(a.sub_key().cmp(&b.sub_key()), a0.cmp(&b0));
        assert_eq!((a.time, a.sub_key()).cmp(&(b.time, b.sub_key())), a.cmp(&b));
    }

    /// The pinned order: whatever the interleaving of pushes and
    /// pops, the queue pops exactly what the binary heap it replaced
    /// pops. Pushes land at the tick being drained, earlier than it
    /// after a partial drain, at `u64::MAX - 1`, on crowded ticks and
    /// on ticks of their own; tags repeat, `(slot, gen)` break ties.
    #[test]
    fn event_queue_pops_in_binary_heap_order(
        ops in proptest::prop::collection::vec((0u8..10, 0u64..6, arb_tag()), 1..300),
    ) {
        let mut queue = EventQueue::default();
        let mut reference: BinaryHeap<Reverse<(Tag, usize, u32)>> = BinaryHeap::new();
        let mut draining = 0u64;
        for (slot, (op, delta, tag)) in ops.into_iter().enumerate() {
            let time = match op {
                0..=3 => {
                    let want = reference.pop().map(|Reverse(e)| e);
                    let got = queue.pop();
                    assert_eq!(got, want.map(|(tag, slot, gen)| (tag.time, slot, gen)));
                    if let Some((t, _, _)) = got {
                        draining = t.ticks();
                    }
                    None
                }
                4 => Some(draining),
                5 => Some(draining.saturating_sub(1 + delta)),
                6 => Some(u64::MAX - 1),
                7 => Some(draining.saturating_add(delta)),
                _ => Some(delta * 1000 + tag.time.ticks()),
            };
            if let Some(time) = time {
                let (tag, gen) = (Tag { time: SimTime(time), ..tag }, tag.emit % 3);
                queue.push(tag, slot, gen);
                reference.push(Reverse((tag, slot, gen)));
                // A repeated tag, apart only in (slot, gen).
                if delta == 0 {
                    queue.push(tag, slot, gen + 1);
                    reference.push(Reverse((tag, slot, gen + 1)));
                }
            }
            let want = reference.peek().map(|Reverse((tag, _, _))| tag.time);
            assert_eq!(queue.peek_time(), want);
        }
        while let Some(Reverse((tag, slot, gen))) = reference.pop() {
            assert_eq!(queue.pop(), Some((tag.time, slot, gen)));
        }
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.peek_time(), None);
    }
}

#[test]
fn the_last_dispatch_seq_the_key_can_hold_is_handed_out() {
    let mut counter = (1u64 << SEQ_BITS) - 1;
    assert_eq!(next_dispatch_seq(&mut counter), (1 << SEQ_BITS) - 1);
}

#[test]
#[should_panic(expected = "56-bit seq field")]
fn a_dispatch_seq_of_two_to_the_56_is_refused() {
    let mut counter = 1u64 << SEQ_BITS;
    next_dispatch_seq(&mut counter);
}
