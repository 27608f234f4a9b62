//! `net`: `encode_frame` + `FrameDecoder::push`/`next` of one command.

use super::{median_of_batches, ns_per_call, sample_request};
use crate::traced::Layer;
use psmr_net::frame::{encode_frame, FrameDecoder};
use std::hint::black_box;

pub fn run(out: &mut Layer) {
    let body = sample_request(1).encode();
    let value = median_of_batches(|| {
        let mut decoder = FrameDecoder::new();
        ns_per_call(5_000, |_| {
            let wire = encode_frame(black_box(&body));
            decoder.push(&wire);
            black_box(decoder.next().expect("clean stream").expect("whole frame"));
        })
    });
    out.insert("net.frame_codec_ns".into(), value);
}
