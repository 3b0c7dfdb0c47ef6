"""Minimal asyncio HTTP client for the serve API (stdlib only).

The daemon speaks one-request-per-connection HTTP/1.1, so the client is
symmetric: open a connection, write one request, read one response
(Content-Length or chunked), close.  Used by the ``served-mix`` workload
of ``perfbench/``, the test suite and anyone scripting the API without
third-party dependencies.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, AsyncIterator

__all__ = ["HttpResponse", "ServeClient"]


@dataclass
class HttpResponse:
    """One complete response: status, headers, raw body."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        return json.loads(self.body.decode("utf-8"))


async def _read_headers(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str]]:
    status_line = (await reader.readuntil(b"\r\n")).decode("latin-1").strip()
    parts = status_line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ConnectionError(f"malformed status line: {status_line!r}")
    status = int(parts[1])
    headers: dict[str, str] = {}
    while True:
        line = (await reader.readuntil(b"\r\n")).decode("latin-1").strip()
        if not line:
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers


async def _read_chunked(reader: asyncio.StreamReader) -> bytes:
    chunks: list[bytes] = []
    while True:
        size_line = (await reader.readuntil(b"\r\n")).decode("latin-1").strip()
        size = int(size_line.split(";")[0], 16)
        if size == 0:
            await reader.readuntil(b"\r\n")
            break
        chunks.append(await reader.readexactly(size))
        await reader.readexactly(2)  # trailing CRLF
    return b"".join(chunks)


class ServeClient:
    """Talk to one ``gpo serve`` daemon at ``host:port``."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    async def _connect(
        self,
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        return await asyncio.open_connection(self.host, self.port)

    def _head(self, method: str, path: str, body: bytes) -> bytes:
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            "Connection: close",
        ]
        if body:
            lines.append("Content-Type: application/json")
            lines.append(f"Content-Length: {len(body)}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def request(
        self,
        method: str,
        path: str,
        json_body: dict[str, Any] | None = None,
    ) -> HttpResponse:
        """One round-trip; the full body is read before returning."""
        body = (
            json.dumps(json_body).encode("utf-8")
            if json_body is not None
            else b""
        )
        reader, writer = await self._connect()
        try:
            writer.write(self._head(method, path, body) + body)
            await writer.drain()
            status, headers = await _read_headers(reader)
            if headers.get("transfer-encoding", "").lower() == "chunked":
                payload = await _read_chunked(reader)
            elif "content-length" in headers:
                payload = await reader.readexactly(
                    int(headers["content-length"])
                )
            else:
                payload = await reader.read()
            return HttpResponse(status=status, headers=headers, body=payload)
        finally:
            writer.close()
            await writer.wait_closed()

    async def trace(self, job_id: str) -> Any:
        """Fetch a terminal job's merged Chrome trace (parsed JSON)."""
        response = await self.request("GET", f"/v1/jobs/{job_id}/trace")
        if response.status != 200:
            raise ConnectionError(
                f"trace fetch rejected: {response.status} "
                f"{response.body[:200]!r}"
            )
        return response.json()

    async def flight(self) -> Any:
        """Fetch the daemon's flight-recorder ring (parsed JSON)."""
        response = await self.request("GET", "/v1/debug/flight")
        if response.status != 200:
            raise ConnectionError(
                f"flight fetch rejected: {response.status} "
                f"{response.body[:200]!r}"
            )
        return response.json()

    async def stream_events(self, job_id: str) -> AsyncIterator[dict[str, Any]]:
        """Yield the job's lifecycle events as dicts while they stream."""
        reader, writer = await self._connect()
        try:
            writer.write(self._head("GET", f"/v1/jobs/{job_id}/events", b""))
            await writer.drain()
            status, headers = await _read_headers(reader)
            if status != 200:
                body = await reader.read()
                raise ConnectionError(
                    f"event stream rejected: {status} {body[:200]!r}"
                )
            buffer = b""
            while True:
                size_line = (
                    (await reader.readuntil(b"\r\n")).decode("latin-1").strip()
                )
                size = int(size_line.split(";")[0], 16)
                if size == 0:
                    await reader.readuntil(b"\r\n")
                    break
                buffer += await reader.readexactly(size)
                await reader.readexactly(2)
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        yield json.loads(line.decode("utf-8"))
        finally:
            writer.close()
            await writer.wait_closed()
