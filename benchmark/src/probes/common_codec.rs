//! `common`: `Request::encode` + `Request::decode` of one command.

use super::{median_of_batches, ns_per_call, sample_request};
use crate::traced::Layer;
use psmr_common::envelope::Request;
use std::hint::black_box;

pub fn run(out: &mut Layer) {
    let value = median_of_batches(|| {
        ns_per_call(5_000, |i| {
            let wire = black_box(sample_request(u64::from(i))).encode();
            black_box(Request::decode(black_box(&wire)).expect("round trip"));
        })
    });
    out.insert("common.request_codec_ns".into(), value);
}
