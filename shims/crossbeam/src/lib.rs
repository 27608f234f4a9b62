//! Minimal offline stand-in for `crossbeam` — the `channel` module only.

pub mod channel;

/// Blocking `select!` over channel receive arms plus a `default(timeout)`
/// arm, mirroring the subset of `crossbeam::channel::select!` the
/// workspace uses. Each `recv(rx) -> var` arm binds `var` to
/// `Result<T, RecvError>`; disconnected channels fire their arm with
/// `Err(RecvError)`. When several arms are ready the first one listed
/// wins.
///
/// When no arm is ready the caller parks: one waker is registered on
/// every selected receiver, every arm is polled once more (a message
/// that landed between the first poll and the registration is taken
/// here instead of being slept through), and the thread waits until a
/// send, or the last sender leaving, signals the waker — or until the
/// timeout, which runs the `default` arm (`Duration::MAX`: never). The
/// waker is unregistered before any arm body runs.
#[macro_export]
macro_rules! select {
    (
        $(recv($rx:expr) -> $var:pat => $body:block)+
        default($timeout:expr) => $default:block
    ) => {{
        let __arms: &[&dyn $crate::channel::SelectArm] = &[$(&$rx),+];
        let mut __selection = $crate::channel::Selection::new(__arms, $timeout);
        'select_loop: loop {
            $(
                if let ::core::option::Option::Some(__ready) =
                    $crate::channel::Receiver::try_select(&$rx)
                {
                    __selection.disarm();
                    let $var = __ready;
                    { $body }
                    break 'select_loop;
                }
            )+
            if !__selection.park() {
                __selection.disarm();
                { $default }
                break 'select_loop;
            }
        }
    }};
}
