//! Backend-parametrised tests: every scenario runs on the portable `poll`
//! backend and, on Linux, on epoll as well, so the two stay interchangeable.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use dse_reactor::{waker_pair, Backend, Event, Interest, Poller, WAKE_TOKEN};

fn backends() -> Vec<Backend> {
    let mut v = vec![Backend::Poll];
    if cfg!(target_os = "linux") {
        v.push(Backend::Epoll);
    }
    v
}

fn wait_for(poller: &Poller, events: &mut Vec<Event>, deadline: Duration) -> usize {
    let start = Instant::now();
    while start.elapsed() < deadline {
        let n = poller.wait(events, Some(Duration::from_millis(50))).expect("wait");
        if n > 0 {
            return n;
        }
    }
    0
}

#[test]
fn accept_then_read_readiness() {
    for backend in backends() {
        let poller = Poller::with_backend(backend).expect("poller");
        assert_eq!(poller.backend(), backend);

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("addr");
        poller.register(listener.as_raw_fd(), 1, Interest::Read).expect("register listener");

        let mut events = Vec::new();
        // Quiet listener: a bounded wait times out with no events.
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).expect("wait");
        assert_eq!(n, 0, "{backend:?}: idle listener reported ready");

        let mut client = TcpStream::connect(addr).expect("connect");
        assert!(
            wait_for(&poller, &mut events, Duration::from_secs(5)) > 0,
            "{backend:?}: no accept readiness"
        );
        assert!(events.iter().any(|e| e.token == 1 && e.readable));

        let (conn, _) = listener.accept().expect("accept");
        conn.set_nonblocking(true).expect("conn nonblocking");
        poller.register(conn.as_raw_fd(), 2, Interest::Read).expect("register conn");

        client.write_all(b"ping").expect("write");
        assert!(
            wait_for(&poller, &mut events, Duration::from_secs(5)) > 0,
            "{backend:?}: no read readiness"
        );
        assert!(events.iter().any(|e| e.token == 2 && e.readable));

        let mut buf = [0u8; 8];
        let got = (&conn).read(&mut buf).expect("read");
        assert_eq!(&buf[..got], b"ping");

        // Parked interest (None) must not report plain readability even with
        // unread data pending — this is what keeps level-triggered loops from
        // spinning while a request is being handled elsewhere.
        client.write_all(b"more").expect("write 2");
        poller.modify(conn.as_raw_fd(), 2, Interest::None).expect("park");
        let n = poller.wait(&mut events, Some(Duration::from_millis(20))).expect("wait parked");
        assert!(
            events.iter().all(|e| e.token != 2 || !e.readable),
            "{backend:?}: parked fd reported readable ({n} events)"
        );

        poller.deregister(conn.as_raw_fd()).expect("deregister");
        poller.deregister(listener.as_raw_fd()).expect("deregister");
    }
}

#[test]
fn waker_crosses_threads_and_drains() {
    for backend in backends() {
        let poller = Poller::with_backend(backend).expect("poller");
        let (waker, wake_rx) = waker_pair().expect("waker pair");
        poller.register(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::Read).expect("register waker");

        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
            waker.wake(); // coalesces with the first
            waker
        });

        let mut events = Vec::new();
        assert!(
            wait_for(&poller, &mut events, Duration::from_secs(5)) > 0,
            "{backend:?}: waker never fired"
        );
        assert!(events.iter().any(|e| e.token == WAKE_TOKEN && e.readable));
        // Join first: both wakes have landed before the drain, so the
        // second cannot arrive after it and fire the drained wait.
        let waker = handle.join().expect("join");
        wake_rx.drain();

        // Drained: the next bounded wait times out.
        let n =
            poller.wait(&mut events, Some(Duration::from_millis(10))).expect("wait after drain");
        assert_eq!(n, 0, "{backend:?}: waker still pending after drain");

        waker.wake();
        assert!(
            wait_for(&poller, &mut events, Duration::from_secs(5)) > 0,
            "{backend:?}: waker unusable after reuse"
        );
        wake_rx.drain();
    }
}

#[test]
fn write_interest_and_hangup() {
    for backend in backends() {
        let poller = Poller::with_backend(backend).expect("poller");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (conn, _) = listener.accept().expect("accept");
        conn.set_nonblocking(true).expect("nonblocking");

        // A fresh connection with write interest is immediately writable.
        poller.register(conn.as_raw_fd(), 9, Interest::ReadWrite).expect("register");
        let mut events = Vec::new();
        assert!(wait_for(&poller, &mut events, Duration::from_secs(5)) > 0);
        assert!(
            events.iter().any(|e| e.token == 9 && e.writable),
            "{backend:?}: no write readiness: {events:?}"
        );

        // Peer disappears: readable-EOF and/or hangup must surface.
        drop(client);
        assert!(
            wait_for(&poller, &mut events, Duration::from_secs(5)) > 0,
            "{backend:?}: no event after peer close"
        );
        assert!(
            events.iter().any(|e| e.token == 9 && (e.readable || e.hangup)),
            "{backend:?}: close not observable: {events:?}"
        );
        poller.deregister(conn.as_raw_fd()).expect("deregister");
    }
}
