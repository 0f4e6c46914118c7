//! `wire` drives: control-message decode/encode over the fuzz corpus
//! (one exemplar of every message variant), the IP header on 64-byte and
//! 1 KiB datagrams, and the checksum.

use super::{ns_per_op, Budget};
use std::hint::black_box;
use wire::{ip, Addr, Group, Message};

/// Run the `wire` drives.
pub fn run(budget: Budget) -> Vec<(&'static str, f64)> {
    let corpus = scenario::fuzz::corpus();
    let encoded: Vec<Vec<u8>> = corpus.iter().map(Message::encode).collect();
    let n = corpus.len() as f64;

    let encode = ns_per_op(budget, || {
        for m in &corpus {
            black_box(black_box(m).encode());
        }
    }) / n;
    let decode = ns_per_op(budget, || {
        for buf in &encoded {
            black_box(Message::decode(black_box(buf)).expect("corpus encodings decode"));
        }
    }) / n;

    let header = ip::Header {
        proto: ip::Protocol::Data,
        ttl: 32,
        src: Addr::new(10, 0, 1, 10),
        dst: Group::test(1).addr(),
    };
    let pkt_64b = header.encap(&[0u8; 64]);
    let decap = ns_per_op(budget, || {
        black_box(ip::Header::decap(black_box(&pkt_64b)).expect("valid datagram"));
    });
    let payload_1k = [0u8; 1024];
    let encap = ns_per_op(budget, || {
        black_box(black_box(&header).encap(black_box(&payload_1k)));
    });
    let checksum = ns_per_op(budget, || {
        black_box(wire::checksum::checksum(black_box(&payload_1k)));
    });

    vec![
        ("wire.decode_ns_per_msg", decode),
        ("wire.encode_ns_per_msg", encode),
        ("wire.ip_decap_ns_64b", decap),
        ("wire.ip_encap_ns_1k", encap),
        ("wire.checksum_ns_per_kib", checksum),
    ]
}
