"""Tests for the serving client's connect loop."""

import socket
import time

import pytest

from repro.serving import ServingClient


@pytest.fixture()
def unlistened():
    """A bound TCP socket that does not listen yet, so connects are refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        yield sock


class TestConnect:
    def test_connects_once_the_port_starts_listening(self, unlistened, monkeypatch):
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            unlistened.listen()

        monkeypatch.setattr(time, "sleep", sleep)
        host, port = unlistened.getsockname()
        with ServingClient(host, port, timeout=5.0):
            peer, _ = unlistened.accept()
            peer.close()
        assert sleeps == [0.1]  # refused once, then connected

    def test_raises_after_five_refused_attempts(self, unlistened, monkeypatch):
        sleeps, attempts = [], []
        create_connection = socket.create_connection

        def counted(*args, **kwargs):
            attempts.append(args[0])
            return create_connection(*args, **kwargs)

        monkeypatch.setattr(time, "sleep", sleeps.append)
        monkeypatch.setattr(socket, "create_connection", counted)
        host, port = unlistened.getsockname()
        with pytest.raises(ConnectionRefusedError):
            ServingClient(host, port)
        assert attempts == [(host, port)] * 5
        assert sleeps == [0.1, 0.2, 0.4, 0.8]

    def test_connects_on_the_first_try_without_sleeping(self, unlistened, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        unlistened.listen()
        host, port = unlistened.getsockname()
        with ServingClient(host, port, timeout=5.0) as client:
            peer, _ = unlistened.accept()
            peer.close()
            assert client._sock.gettimeout() == 5.0
        assert sleeps == []

    @pytest.mark.parametrize("refusals", [2, 3, 4])
    def test_sleeps_the_schedule_so_far_before_connecting(
        self, unlistened, monkeypatch, refusals
    ):
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            if len(sleeps) == refusals:
                unlistened.listen()

        monkeypatch.setattr(time, "sleep", sleep)
        host, port = unlistened.getsockname()
        with ServingClient(host, port, timeout=5.0):
            peer, _ = unlistened.accept()
            peer.close()
        assert sleeps == [0.1, 0.2, 0.4, 0.8][:refusals]

    def test_timed_out_connects_are_retried_then_raised(self, monkeypatch):
        sleeps, attempts = [], []

        def timing_out(address, timeout=None):
            attempts.append((address, timeout))
            raise TimeoutError("timed out")

        monkeypatch.setattr(time, "sleep", sleeps.append)
        monkeypatch.setattr(socket, "create_connection", timing_out)
        with pytest.raises(TimeoutError):
            ServingClient("127.0.0.1", 9, timeout=2.5)
        assert attempts == [(("127.0.0.1", 9), 2.5)] * 5
        assert sleeps == [0.1, 0.2, 0.4, 0.8]

    @pytest.mark.parametrize(
        "error",
        [ConnectionResetError, PermissionError, socket.gaierror],
        ids=["reset", "permission", "name-lookup"],
    )
    def test_other_connect_errors_raise_without_retrying(self, monkeypatch, error):
        sleeps, attempts = [], []

        def failing(address, timeout=None):
            attempts.append(address)
            raise error("connect failed")

        monkeypatch.setattr(time, "sleep", sleeps.append)
        monkeypatch.setattr(socket, "create_connection", failing)
        with pytest.raises(error):
            ServingClient("127.0.0.1", 9)
        assert attempts == [("127.0.0.1", 9)]
        assert sleeps == []
