//! The socket path under the differential harness: scripts played over a
//! loopback `gts-net` connection in `BatchSubmit` frames answer like brute
//! force — a sharded index's mixed stream beside a 2-d index, and a
//! mutable index under churn — and a client that vanishes mid-frame
//! leaves the service whole.

use gts_integration::{
    queries, run, together, Ask, Config, Kind, Path, Rig, Script, Step, HANG, MENU,
};
use gts_net::frame::{read_frame, write_frame, Frame};
use gts_net::PROTOCOL_VERSION;
use gts_points::gen::{geocity_like, uniform};
use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn mixed(script: Script<3>) -> Script<3> {
    script.queries(400, Ask::Any(&MENU))
}

/// Beside it, on the same server over a second connection, a 2-d index:
/// each frame's queries reach their own index.
#[test]
fn a_mixed_stream_on_a_sharded_index_answers_in_batch_frames() {
    let script = mixed(mixed(mixed(Script::new(
        0x10ba,
        uniform::<3>(2048, 0x10ba),
    ))));
    let geo = Script::new(0x10bb, geocity_like(1024, 0x10bb));
    let geo = geo
        .queries(400, Ask::Any(&MENU))
        .queries(400, Ask::Any(&MENU));
    let cfg = Config::new(Kind::Sharded, Path::Loopback).at(8, 1, None);
    let m = together(&script, &cfg, &[(&geo, Kind::Flat)]).metrics;
    assert!(m.expect("served").fused_batches > 0, "a mixed stream fuses");
}

/// Inserts, deletes and a merge racing the background merges, then a
/// close: the frames after it are refused, slot by slot.
#[test]
fn a_mutable_index_under_churn_answers_over_the_socket() {
    let script = mixed(Script::new(0xc4a2, uniform::<3>(1024, 0xc4a2))).mutate(48, 32);
    let script = mixed(mixed(script).mutate(48, 32).then(Step::Merge)).mutate(48, 32);
    let script = mixed(mixed(script).then(Step::Close)).mutate(8, 8);
    run(&script, &Config::new(Kind::Mutable, Path::Loopback));
}

/// A client that sends a whole `BatchSubmit` frame and drops its socket,
/// or drops it halfway through the frame: every query the server took
/// from it ends (`submitted == completed + failed + rejected`), a second
/// connection's script still answers exactly, and the rig's end —
/// `NetServer::shutdown` among it — returns.
#[test]
fn a_client_that_vanishes_mid_batch_submit_leaves_the_service_whole() {
    let script = mixed(mixed(Script::new(0xdead, uniform::<3>(1024, 0xdead))));
    let Step::Query(lanes) = &script.steps[0] else {
        unreachable!()
    };
    let frame = queries(lanes);
    let bytes = Frame::BatchSubmit {
        base_req: 1,
        queries: frame.clone(),
        ctx: None,
    }
    .encode();
    for (sent, taken) in [(bytes.len(), frame.len() as u64), (bytes.len() / 2, 0)] {
        let rig = Rig::new(&script, &Config::new(Kind::Sharded, Path::Loopback));
        let mut vanishing = TcpStream::connect(rig.addr()).expect("connect");
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            wall_us: 0,
        };
        write_frame(&mut vanishing, &hello).unwrap();
        read_frame(&mut vanishing)
            .unwrap()
            .expect("the server's hello");
        vanishing.write_all(&bytes[..sent]).unwrap();
        drop(vanishing);

        let service = rig.service().clone();
        let ends = Instant::now() + HANG;
        loop {
            let m = service.metrics();
            if m.submitted == taken && m.submitted == m.completed + m.failed + m.rejected {
                break;
            }
            assert!(
                Instant::now() < ends,
                "{sent} of {} bytes: {m:?}",
                bytes.len()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        rig.play(&script);
    }
}

/// The wire's `Mutate` frame refuses a NaN or wrong-dimension insert,
/// alone or among good mutations, and any mutation of a static index, with
/// the matching `ErrorCode` and nothing applied; each index then answers
/// its script over the same connection.
#[test]
fn a_bad_mutate_frame_is_refused_whole_and_the_index_answers_on() {
    let script = mixed(Script::new(0xbad1, uniform::<3>(512, 0xbad1))).mutate(24, 16);
    gts_integration::bad_mutations_are_refused(&mixed(script), Path::Loopback);
}
