//! Wire-level HTTP/1.1 request framing with bounded allocation.
//!
//! The network boundary is the one place the serving stack reads bytes
//! it does not control, so this module follows the same rules as the
//! hardened P3DCKPT2 checkpoint reader: every length is validated
//! against a cap *before* any buffer grows to hold it, malformed input
//! resolves to a typed error (mapped to a 4xx status) rather than a
//! panic, and a truncated peer simply closes the connection.
//!
//! Framing is deliberately minimal: request heads are parsed with the
//! vendored [`httparse`] stand-in, bodies are framed by
//! `Content-Length` only (chunked transfer encoding is rejected as
//! unimplemented), and clip payloads are raw little-endian planar
//! tensors — `f32` words or Q7.8 `i16` words — with the `[C, D, H, W]`
//! shape carried in an `X-P3D-Shape` header.

use p3d_tensor::{Fixed16, Tensor};
use std::io::Read;

/// Largest request head (request line + headers) accepted, bytes.
pub const DEFAULT_MAX_HEAD_BYTES: usize = 8 * 1024;
/// Largest request body accepted by default, bytes (a micro clip is
/// ~6 KiB; a full `lite` clip `[1, 8, 56, 56]` is ~98 KiB of f32).
pub const DEFAULT_MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Header slots offered to the parser; more headers than this is a
/// malformed request for our purposes.
pub const MAX_HEADERS: usize = 32;
/// Largest single clip dimension accepted (caps `C`/`D`/`H`/`W` so the
/// element-count product cannot overflow and implausible shapes fail
/// fast with a clear error).
pub const MAX_DIM: usize = 4096;

/// Read-side caps for one connection.
#[derive(Clone, Copy, Debug)]
pub struct WireLimits {
    /// Cap on the request head, bytes.
    pub max_head_bytes: usize,
    /// Cap on the request body, bytes.
    pub max_body_bytes: usize,
}

impl Default for WireLimits {
    fn default() -> Self {
        WireLimits {
            max_head_bytes: DEFAULT_MAX_HEAD_BYTES,
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
        }
    }
}

/// A typed wire-boundary failure. Every variant maps to either an HTTP
/// status ([`WireError::status`]) or a silent connection close.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The peer closed (or timed out) before a full request arrived;
    /// there is nobody to answer, so the connection just closes.
    Closed,
    /// The request head is malformed (parse error from `httparse`).
    BadRequest(String),
    /// The request head exceeded [`WireLimits::max_head_bytes`].
    HeadTooLarge {
        /// The configured cap.
        limit: usize,
    },
    /// `Content-Length` is missing, non-numeric, negative, duplicated
    /// inconsistently, or otherwise unusable.
    BadContentLength(String),
    /// The declared body length exceeds [`WireLimits::max_body_bytes`];
    /// detected before allocating anything.
    BodyTooLarge {
        /// The declared length.
        declared: u64,
        /// The configured cap.
        limit: usize,
    },
    /// A `Transfer-Encoding` the server does not implement.
    UnsupportedTransferEncoding,
    /// The request's `Content-Type` is not a clip payload type.
    UnsupportedMediaType(String),
    /// The `X-P3D-Shape` header is missing or malformed, a dimension
    /// exceeds [`MAX_DIM`], or the shape disagrees with the body size.
    BadShape(String),
    /// A streamed P3DVID1 body failed validation: bad magic, checksum
    /// mismatch, truncated record, or geometry disagreeing with the
    /// declared shape/`Content-Length`.
    BadVideo(String),
}

impl WireError {
    /// The HTTP status this error resolves to, or `None` when the
    /// connection closes without a response ([`WireError::Closed`]).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            WireError::Closed => None,
            WireError::BadRequest(_) => Some((400, "Bad Request")),
            WireError::HeadTooLarge { .. } => Some((431, "Request Header Fields Too Large")),
            WireError::BadContentLength(_) => Some((400, "Bad Request")),
            WireError::BodyTooLarge { .. } => Some((413, "Payload Too Large")),
            WireError::UnsupportedTransferEncoding => Some((501, "Not Implemented")),
            WireError::UnsupportedMediaType(_) => Some((415, "Unsupported Media Type")),
            WireError::BadShape(_) => Some((400, "Bad Request")),
            WireError::BadVideo(_) => Some((400, "Bad Request")),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed mid-request"),
            WireError::BadRequest(m) => write!(f, "malformed request: {m}"),
            WireError::HeadTooLarge { limit } => {
                write!(f, "request head exceeds {limit} bytes")
            }
            WireError::BadContentLength(m) => write!(f, "bad Content-Length: {m}"),
            WireError::BodyTooLarge { declared, limit } => {
                write!(f, "declared body of {declared} bytes exceeds cap {limit}")
            }
            WireError::UnsupportedTransferEncoding => {
                write!(
                    f,
                    "transfer encodings are not supported; frame with Content-Length"
                )
            }
            WireError::UnsupportedMediaType(ct) => {
                write!(f, "unsupported content type '{ct}'")
            }
            WireError::BadShape(m) => write!(f, "bad clip shape: {m}"),
            WireError::BadVideo(m) => write!(f, "bad video stream: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One parsed request: the head's interesting parts plus the body.
#[derive(Clone, Debug, Default)]
pub struct HttpRequest {
    /// Request method, e.g. `GET`.
    pub method: String,
    /// Request target path, query string stripped.
    pub path: String,
    /// Minor HTTP version (0 or 1).
    pub version: u8,
    /// Headers in arrival order, names lowercased, values as bytes.
    pub headers: Vec<(String, Vec<u8>)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The first value of `name` (ASCII case-insensitive), as UTF-8.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .and_then(|(_, v)| std::str::from_utf8(v).ok())
    }

    /// `true` when the peer asked to keep the connection open after
    /// this request (HTTP/1.1 default; HTTP/1.0 must opt in).
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version >= 1,
        }
    }
}

/// How the body of a parsed head is framed: the validated declared
/// length plus any body bytes that arrived buffered behind the head.
///
/// Produced by [`read_request_head`]; consumed either by slurping the
/// whole body ([`read_request`] does this) or by streaming it
/// incrementally through a [`BodyReader`] without ever materialising
/// the full payload.
#[derive(Clone, Debug, Default)]
pub struct BodyFraming {
    /// Validated `Content-Length` (`None` when the request has no
    /// body). Always within [`WireLimits::max_body_bytes`].
    pub declared: Option<u64>,
    /// Body bytes over-read while accumulating the head; always
    /// `<= declared`.
    pub leftover: Vec<u8>,
}

/// Reads and validates one request *head* from `r` under `limits`,
/// leaving the body on the wire.
///
/// `carry` holds bytes already pulled off the wire that belong to this
/// request — the over-read tail of a previous pipelined request. It is
/// consumed on entry; any bytes over-read *past this request's body*
/// (the start of the next pipelined request) are stored back into
/// `carry` for the next call, so framing stays exact across a
/// keep-alive connection. Callers that only ever parse a single
/// request can pass a fresh `Vec`.
///
/// Returns `Ok(None)` on a clean EOF before the first byte (the peer
/// finished with the connection). All framing validation happens here
/// — transfer encodings rejected, `Content-Length` parsed with
/// duplicate-conflict detection, and the body cap checked before
/// anything is allocated — so both the slurping and the streaming
/// consumers inherit identical hardening.
pub fn read_request_head(
    r: &mut impl Read,
    carry: &mut Vec<u8>,
    limits: &WireLimits,
) -> Result<Option<(HttpRequest, BodyFraming)>, WireError> {
    // ---- accumulate the head, re-parsing as bytes arrive -----------
    let mut buf: Vec<u8> = std::mem::take(carry);
    buf.reserve(512);
    let mut chunk = [0u8; 512];
    let head_len = loop {
        match parse_head_len(&buf)? {
            Some(n) => break n,
            None => {
                if buf.len() >= limits.max_head_bytes {
                    return Err(WireError::HeadTooLarge {
                        limit: limits.max_head_bytes,
                    });
                }
                let want = chunk.len().min(limits.max_head_bytes - buf.len());
                let got = r.read(&mut chunk[..want]).map_err(|_| WireError::Closed)?;
                if got == 0 {
                    if buf.is_empty() {
                        return Ok(None);
                    }
                    return Err(WireError::Closed);
                }
                buf.extend_from_slice(&chunk[..got]);
            }
        }
    };

    // ---- parse the complete head into owned parts ------------------
    let mut slots = [httparse::EMPTY_HEADER; MAX_HEADERS];
    let mut parsed = httparse::Request::new(&mut slots);
    match parsed.parse(&buf[..head_len]) {
        Ok(httparse::Status::Complete(_)) => {}
        Ok(httparse::Status::Partial) | Err(_) => {
            // parse_head_len accepted this prefix, so a disagreement
            // here is a parser bug; map it to BadRequest regardless.
            return Err(WireError::BadRequest("inconsistent head".to_string()));
        }
    }
    let full_path = parsed.path.unwrap_or("/").to_string();
    let req = HttpRequest {
        method: parsed.method.unwrap_or("").to_string(),
        path: full_path.split('?').next().unwrap_or("/").to_string(),
        version: parsed.version.unwrap_or(1),
        headers: parsed
            .headers
            .iter()
            .map(|h| (h.name.to_ascii_lowercase(), h.value.to_vec()))
            .collect(),
        body: Vec::new(),
    };

    // ---- validate body framing -------------------------------------
    if req.header("transfer-encoding").is_some() {
        return Err(WireError::UnsupportedTransferEncoding);
    }
    let already = buf.len() - head_len;
    let declared: u64 = match content_length(&req)? {
        Some(n) => n,
        None => {
            // A bodiless head over-read the start of the next
            // pipelined request; hand those bytes to the next call.
            if already > 0 {
                *carry = buf[head_len..].to_vec();
            }
            return Ok(Some((req, BodyFraming::default())));
        }
    };
    if declared > limits.max_body_bytes as u64 {
        return Err(WireError::BodyTooLarge {
            declared,
            limit: limits.max_body_bytes,
        });
    }
    if already as u64 > declared {
        // Over-read past the declared body: the surplus is the next
        // pipelined request, not ours to swallow.
        let split = head_len + declared as usize;
        *carry = buf[split..].to_vec();
        buf.truncate(split);
    }
    let leftover = buf[head_len..].to_vec();
    Ok(Some((
        req,
        BodyFraming {
            declared: Some(declared),
            leftover,
        },
    )))
}

/// Reads one request from `r` under `limits`, body included.
///
/// Returns `Ok(None)` on a clean EOF before the first byte (the peer
/// finished with the connection). The head buffer grows in small steps
/// and is capped at `max_head_bytes`; the body allocation happens only
/// after its declared length passes the cap check, so a hostile
/// `Content-Length` can never trigger an oversized allocation.
pub fn read_request(
    r: &mut impl Read,
    limits: &WireLimits,
) -> Result<Option<HttpRequest>, WireError> {
    let Some((mut req, framing)) = read_request_head(r, &mut Vec::new(), limits)? else {
        return Ok(None);
    };
    read_body(r, &mut req, framing)?;
    Ok(Some(req))
}

/// Slurps the remainder of a request body described by `framing` into
/// `req.body`. The allocation is safe: [`read_request_head`] already
/// validated the declared length against the body cap.
pub fn read_body(
    r: &mut impl Read,
    req: &mut HttpRequest,
    framing: BodyFraming,
) -> Result<(), WireError> {
    let Some(declared) = framing.declared else {
        return Ok(());
    };
    let mut body = vec![0u8; declared as usize];
    let take = framing.leftover.len();
    body[..take].copy_from_slice(&framing.leftover);
    r.read_exact(&mut body[take..])
        .map_err(|_| WireError::Closed)?;
    req.body = body;
    Ok(())
}

/// A bounded [`Read`] over one request body: first the bytes that were
/// over-read with the head, then the socket, never yielding more than
/// the declared `Content-Length`. EOF lands exactly at the body's end,
/// so a streaming decoder layered on top (e.g. the P3DVID1 reader)
/// cannot run into the next pipelined request.
pub struct BodyReader<'a, R: Read> {
    r: &'a mut R,
    leftover: Vec<u8>,
    pos: usize,
    remaining: u64,
}

impl<'a, R: Read> BodyReader<'a, R> {
    /// Wraps `r` with the framing from [`read_request_head`].
    pub fn new(r: &'a mut R, framing: BodyFraming) -> BodyReader<'a, R> {
        let declared = framing.declared.unwrap_or(0);
        BodyReader {
            r,
            remaining: declared - framing.leftover.len() as u64,
            leftover: framing.leftover,
            pos: 0,
        }
    }

    /// Body bytes not yet consumed.
    pub fn unread(&self) -> u64 {
        (self.leftover.len() - self.pos) as u64 + self.remaining
    }
}

impl<R: Read> Read for BodyReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos < self.leftover.len() {
            let n = buf.len().min(self.leftover.len() - self.pos);
            buf[..n].copy_from_slice(&self.leftover[self.pos..self.pos + n]);
            self.pos += n;
            return Ok(n);
        }
        let want = (buf.len() as u64).min(self.remaining) as usize;
        if want == 0 {
            return Ok(0);
        }
        let got = self.r.read(&mut buf[..want])?;
        self.remaining -= got as u64;
        Ok(got)
    }
}

/// Returns the head length when `buf` holds a complete head, `None`
/// when more bytes are needed, or the parse error for a malformed
/// prefix (malformed is final: more bytes cannot repair it).
fn parse_head_len(buf: &[u8]) -> Result<Option<usize>, WireError> {
    if buf.is_empty() {
        return Ok(None);
    }
    let mut slots = [httparse::EMPTY_HEADER; MAX_HEADERS];
    let mut parsed = httparse::Request::new(&mut slots);
    match parsed.parse(buf) {
        Ok(httparse::Status::Complete(n)) => Ok(Some(n)),
        Ok(httparse::Status::Partial) => Ok(None),
        Err(e) => Err(WireError::BadRequest(e.to_string())),
    }
}

/// Extracts and validates `Content-Length`. Duplicates must agree;
/// the value must be a plain non-negative decimal that fits in `u64`.
fn content_length(req: &HttpRequest) -> Result<Option<u64>, WireError> {
    let mut found: Option<u64> = None;
    for (name, value) in &req.headers {
        if !name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        let text = std::str::from_utf8(value)
            .map_err(|_| WireError::BadContentLength("not UTF-8".to_string()))?
            .trim();
        if text.starts_with('+') || text.starts_with('-') {
            return Err(WireError::BadContentLength(format!(
                "signed value '{text}'"
            )));
        }
        let n: u64 = text
            .parse()
            .map_err(|_| WireError::BadContentLength(format!("not a length: '{text}'")))?;
        if let Some(prev) = found {
            if prev != n {
                return Err(WireError::BadContentLength(format!(
                    "conflicting values {prev} and {n}"
                )));
            }
        }
        found = Some(n);
    }
    Ok(found)
}

/// Writes one HTTP/1.1 response. `content_type` applies when `body` is
/// non-empty; `close` adds `Connection: close`.
pub fn write_response(
    w: &mut impl std::io::Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Length: {}\r\n",
        body.len()
    );
    if !body.is_empty() {
        head.push_str(&format!("Content-Type: {content_type}\r\n"));
    }
    if close {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Content type for raw little-endian planar `f32` clip payloads.
pub const CONTENT_TYPE_F32: &str = "application/x-p3d-f32";
/// Content type for raw little-endian planar Q7.8 (`i16`) payloads.
pub const CONTENT_TYPE_Q78: &str = "application/x-p3d-q78";
/// Content type for streamed P3DVID1 raw-video bodies, decoded
/// frame-by-frame as they arrive.
pub const CONTENT_TYPE_VID: &str = "application/x-p3d-vid";
/// Header naming the clip shape, e.g. `X-P3D-Shape: 1,6,16,16`.
pub const SHAPE_HEADER: &str = "x-p3d-shape";
/// Header naming the submitting client for fairness accounting.
pub const CLIENT_HEADER: &str = "x-p3d-client";

/// Parses `X-P3D-Shape` into `[C, D, H, W]` with per-dimension caps.
fn parse_shape(req: &HttpRequest) -> Result<[usize; 4], WireError> {
    let text = req
        .header(SHAPE_HEADER)
        .ok_or_else(|| WireError::BadShape(format!("missing {SHAPE_HEADER} header")))?;
    let mut dims = [0usize; 4];
    let mut it = text.split(',');
    for (i, d) in dims.iter_mut().enumerate() {
        let part = it
            .next()
            .ok_or_else(|| WireError::BadShape(format!("expected 4 dims, got {i}")))?
            .trim();
        *d = part
            .parse()
            .map_err(|_| WireError::BadShape(format!("dimension '{part}' is not a number")))?;
        if *d == 0 || *d > MAX_DIM {
            return Err(WireError::BadShape(format!(
                "dimension {d} outside 1..={MAX_DIM}"
            )));
        }
    }
    if it.next().is_some() {
        return Err(WireError::BadShape("more than 4 dims".to_string()));
    }
    Ok(dims)
}

/// Decodes a `POST /v1/infer` body into a `[C, D, H, W]` f32 clip.
///
/// Both payload types decode to exact f32: `f32` words pass through
/// bit-for-bit and every Q7.8 value is exactly representable, so a clip
/// uploaded in either encoding of the same values produces bitwise
/// identical inference results.
pub fn decode_clip(req: &HttpRequest) -> Result<Tensor, WireError> {
    let dims = parse_shape(req)?;
    // MAX_DIM^4 = 2^48 fits u64; checked_mul keeps even absurd future
    // caps safe.
    let elems_u64 = dims
        .iter()
        .try_fold(1u64, |acc, &d| acc.checked_mul(d as u64))
        .ok_or_else(|| WireError::BadShape("element count overflows".to_string()))?;
    let ct = req.header("content-type").unwrap_or("").to_string();
    let word = match ct.as_str() {
        CONTENT_TYPE_F32 => 4usize,
        CONTENT_TYPE_Q78 => 2usize,
        other => return Err(WireError::UnsupportedMediaType(other.to_string())),
    };
    let expected = elems_u64
        .checked_mul(word as u64)
        .ok_or_else(|| WireError::BadShape("byte count overflows".to_string()))?;
    if expected != req.body.len() as u64 {
        return Err(WireError::BadShape(format!(
            "shape {dims:?} needs {expected} body bytes, got {}",
            req.body.len()
        )));
    }
    let elems = elems_u64 as usize;
    let mut data = Vec::with_capacity(elems);
    match word {
        4 => {
            for b in req.body.chunks_exact(4) {
                data.push(f32::from_le_bytes([b[0], b[1], b[2], b[3]]));
            }
        }
        _ => {
            for b in req.body.chunks_exact(2) {
                data.push(Fixed16::from_bits(i16::from_le_bytes([b[0], b[1]])).to_f32());
            }
        }
    }
    Ok(Tensor::from_vec(dims, data))
}

/// Decodes a streamed `application/x-p3d-vid` request body into a
/// `[1, D, H, W]` f32 clip, frame by frame as the bytes arrive.
///
/// Buffering is bounded throughout, per this module's discipline: the
/// only transient buffer is one source frame, whose size the P3DVID1
/// header caps and validates *before* allocation, and the target clip
/// is capped against `limits.max_body_bytes` before it exists. The
/// container must agree with the request on every axis — stream length
/// vs `Content-Length`, frame count vs the shape header's `D` — so a
/// success consumes the body exactly and keep-alive framing survives.
///
/// Frames are bilinear-resized to `H x W` (integer arithmetic) and
/// normalized to `[0, 1]` f32 with the same shared kernels the ingest
/// pipeline uses, so a clip streamed over the wire is bitwise
/// identical to the same container decoded by `p3d ingest`.
pub fn decode_vid_body(
    req: &HttpRequest,
    body: &mut impl Read,
    declared: u64,
    limits: &WireLimits,
) -> Result<Tensor, WireError> {
    use p3d_video_data::io::{FrameResizer, PreprocessConfig, VidReader};

    let bad = |e: std::io::Error| WireError::BadVideo(e.to_string());
    let dims = parse_shape(req)?;
    let [c, d, h, w] = dims;
    if c != 1 {
        return Err(WireError::BadShape(format!(
            "video bodies are single-channel luma; shape declares C = {c}"
        )));
    }
    // Cap the decoded clip like any other body allocation.
    let clip_bytes = (d as u64) * (h as u64) * (w as u64) * 4;
    if clip_bytes > limits.max_body_bytes as u64 {
        return Err(WireError::BodyTooLarge {
            declared: clip_bytes,
            limit: limits.max_body_bytes,
        });
    }

    let mut reader = VidReader::open(body).map_err(bad)?;
    let header = *reader.header();
    if header.frames as usize != d {
        return Err(WireError::BadVideo(format!(
            "container holds {} frames but the shape header declares D = {d}",
            header.frames
        )));
    }
    if header.stream_len() != declared {
        return Err(WireError::BadVideo(format!(
            "container geometry implies {} bytes but Content-Length declares {declared}",
            header.stream_len()
        )));
    }
    let resizer = FrameResizer::new(
        header.width as usize,
        header.height as usize,
        PreprocessConfig::to_size(h, w),
    )
    .map_err(bad)?;

    let mut data = vec![0.0f32; d * h * w];
    let mut frame_buf: Vec<u8> = Vec::new();
    for f in 0..d {
        if !reader.read_frame_into(&mut frame_buf).map_err(bad)? {
            return Err(WireError::BadVideo(
                "container ended mid-stream".to_string(),
            ));
        }
        resizer.run(&frame_buf, &mut data[f * h * w..(f + 1) * h * w]);
    }
    Ok(Tensor::from_vec(dims, data))
}

/// Encodes a clip as the raw little-endian planar f32 payload
/// [`decode_clip`] accepts — the client half of the wire format, used
/// by tests and benchmarks.
pub fn encode_clip_f32(clip: &Tensor) -> Vec<u8> {
    let mut out = Vec::with_capacity(clip.data().len() * 4);
    for v in clip.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Q7.8 twin of [`encode_clip_f32`]: quantises with round-to-nearest
/// saturation (the same `Fixed16::from_f32` contract the sim backend
/// applies on ingest).
pub fn encode_clip_q78(clip: &Tensor) -> Vec<u8> {
    let mut out = Vec::with_capacity(clip.data().len() * 2);
    for v in clip.data() {
        out.extend_from_slice(&Fixed16::from_f32(*v).to_bits().to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn limits() -> WireLimits {
        WireLimits {
            max_head_bytes: 256,
            max_body_bytes: 64,
        }
    }

    fn read_str(s: &[u8]) -> Result<Option<HttpRequest>, WireError> {
        read_request(&mut Cursor::new(s.to_vec()), &limits())
    }

    /// Roomier limits for the video-body tests, whose containers do not
    /// fit the deliberately tiny caps above.
    fn vid_limits() -> WireLimits {
        WireLimits {
            max_head_bytes: 1024,
            max_body_bytes: 1 << 16,
        }
    }

    #[test]
    fn parses_request_with_body_and_lowercases_headers() {
        let req = read_str(
            b"POST /v1/infer?q=1 HTTP/1.1\r\nX-P3D-Client: alice\r\nContent-Length: 4\r\n\r\nabcd",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/infer");
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.header("x-p3d-client"), Some("alice"));
        assert_eq!(req.header("X-P3D-CLIENT"), Some("alice"));
        assert!(req.keep_alive());
    }

    #[test]
    fn clean_eof_is_none_and_truncation_is_closed() {
        assert!(read_str(b"").unwrap().is_none());
        assert_eq!(read_str(b"GET / HT").unwrap_err(), WireError::Closed);
        assert_eq!(
            read_str(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err(),
            WireError::Closed
        );
    }

    #[test]
    fn oversized_head_and_body_hit_caps() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(300));
        assert_eq!(
            read_str(long.as_bytes()).unwrap_err(),
            WireError::HeadTooLarge { limit: 256 }
        );
        // The cap fires on the declared length, before any body read.
        assert_eq!(
            read_str(b"POST / HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n").unwrap_err(),
            WireError::BodyTooLarge {
                declared: 999_999_999_999,
                limit: 64
            }
        );
    }

    #[test]
    fn bad_content_lengths_are_typed() {
        for (cl, what) in [
            ("-5", "signed"),
            ("+5", "signed"),
            ("abc", "not a length"),
            ("99999999999999999999999", "not a length"),
        ] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {cl}\r\n\r\n");
            match read_str(raw.as_bytes()).unwrap_err() {
                WireError::BadContentLength(m) => {
                    assert!(m.contains(what) || what == "signed", "{m}")
                }
                other => panic!("expected BadContentLength for '{cl}', got {other:?}"),
            }
        }
        // Conflicting duplicates are rejected; agreeing ones accepted.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nab";
        assert!(matches!(
            read_str(raw).unwrap_err(),
            WireError::BadContentLength(_)
        ));
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab";
        assert_eq!(read_str(raw).unwrap().unwrap().body, b"ab");
    }

    #[test]
    fn garbage_and_transfer_encoding_are_rejected() {
        assert!(matches!(
            read_str(b"\x00\xffgarbage\r\n\r\n").unwrap_err(),
            WireError::BadRequest(_)
        ));
        assert_eq!(
            read_str(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err(),
            WireError::UnsupportedTransferEncoding
        );
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let req = read_str(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive());
        let req = read_str(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.keep_alive());
        let req = read_str(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive());
    }

    fn infer_req(shape: &str, ct: &str, body: Vec<u8>) -> HttpRequest {
        HttpRequest {
            method: "POST".to_string(),
            path: "/v1/infer".to_string(),
            version: 1,
            headers: vec![
                (SHAPE_HEADER.to_string(), shape.as_bytes().to_vec()),
                ("content-type".to_string(), ct.as_bytes().to_vec()),
            ],
            body,
        }
    }

    #[test]
    fn clip_payloads_round_trip_bitwise() {
        // 32767/256 is the Q7.8 positive rail, exact in f32.
        let clip = Tensor::from_vec([1, 1, 2, 2], vec![0.5, -1.25, 32767.0 / 256.0, -128.0]);
        let f32_req = infer_req("1,1,2,2", CONTENT_TYPE_F32, encode_clip_f32(&clip));
        let decoded = decode_clip(&f32_req).unwrap();
        assert_eq!(decoded.shape().dims(), &[1, 1, 2, 2]);
        for (a, b) in clip.data().iter().zip(decoded.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // These values are exactly representable in Q7.8, so the
        // compact encoding decodes to the identical f32 clip.
        let q_req = infer_req("1,1,2,2", CONTENT_TYPE_Q78, encode_clip_q78(&clip));
        let decoded = decode_clip(&q_req).unwrap();
        for (a, b) in clip.data().iter().zip(decoded.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn clip_decode_rejects_bad_shape_type_and_size() {
        let body = encode_clip_f32(&Tensor::full([1, 1, 1, 2], 0.0));
        for (shape, why) in [
            ("", "missing dims"),
            ("1,1,2", "too few dims"),
            ("1,1,1,2,3", "too many dims"),
            ("1,1,0,2", "zero dim"),
            ("1,1,9999999,2", "dim over cap"),
            ("a,b,c,d", "non-numeric"),
        ] {
            let req = infer_req(shape, CONTENT_TYPE_F32, body.clone());
            assert!(
                matches!(decode_clip(&req), Err(WireError::BadShape(_))),
                "{why}"
            );
        }
        let req = infer_req("1,1,1,2", "text/plain", body.clone());
        assert!(matches!(
            decode_clip(&req),
            Err(WireError::UnsupportedMediaType(_))
        ));
        // Declared shape larger than the body.
        let req = infer_req("1,1,2,2", CONTENT_TYPE_F32, body);
        assert!(matches!(decode_clip(&req), Err(WireError::BadShape(_))));
    }

    #[test]
    fn pipelined_tail_is_carried_to_the_next_request() {
        // Two pipelined requests in one buffer: the reader must not
        // swallow the second one as body bytes, nor reject it — the
        // surplus past the declared body frames the next request.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\nabGET /next HTTP/1.1\r\n\r\n";
        let mut cur = Cursor::new(raw.to_vec());
        let mut carry = Vec::new();
        let (mut req, framing) = read_request_head(&mut cur, &mut carry, &limits())
            .unwrap()
            .unwrap();
        assert_eq!(framing.declared, Some(2));
        read_body(&mut cur, &mut req, framing).unwrap();
        assert_eq!(req.body, b"ab");
        assert_eq!(carry, b"GET /next HTTP/1.1\r\n\r\n");
        // The second request parses entirely from the carried bytes.
        let (req2, framing2) = read_request_head(&mut cur, &mut carry, &limits())
            .unwrap()
            .unwrap();
        assert_eq!(req2.method, "GET");
        assert_eq!(req2.path, "/next");
        assert!(framing2.declared.is_none());
        assert!(carry.is_empty());
        // And the stream ends cleanly after it.
        assert!(read_request_head(&mut cur, &mut carry, &limits())
            .unwrap()
            .is_none());
    }

    #[test]
    fn body_reader_is_bounded_and_serves_leftover_first() {
        let mut socket = Cursor::new(b"cdefEXTRA".to_vec());
        let framing = BodyFraming {
            declared: Some(6),
            leftover: b"ab".to_vec(),
        };
        let mut body = BodyReader::new(&mut socket, framing);
        assert_eq!(body.unread(), 6);
        let mut got = Vec::new();
        body.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"abcdef", "leftover then socket, capped at declared");
        assert_eq!(body.unread(), 0);
        // The bytes past the body stay on the wire for the next request.
        assert_eq!(socket.position(), 4);
    }

    fn vid_container(w: u32, h: u32, frames: u32) -> Vec<u8> {
        use p3d_video_data::io::{VidHeader, VidWriter};
        let header = VidHeader::gray8(w, h, frames, 30_000);
        let mut wtr = VidWriter::new(Vec::new(), header).unwrap();
        let frame: Vec<u8> = (0..header.frame_bytes())
            .map(|i| (i * 7 + 3) as u8)
            .collect();
        for _ in 0..frames {
            wtr.write_frame(&frame).unwrap();
        }
        wtr.finish().unwrap()
    }

    fn vid_req(shape: &str, body_len: usize) -> HttpRequest {
        HttpRequest {
            method: "POST".to_string(),
            path: "/v1/infer".to_string(),
            version: 1,
            headers: vec![
                (SHAPE_HEADER.to_string(), shape.as_bytes().to_vec()),
                (
                    "content-type".to_string(),
                    CONTENT_TYPE_VID.as_bytes().to_vec(),
                ),
                (
                    "content-length".to_string(),
                    body_len.to_string().into_bytes(),
                ),
            ],
            body: Vec::new(),
        }
    }

    #[test]
    fn vid_body_decodes_to_the_reference_clip_bitwise() {
        use p3d_video_data::io::{read_video_clips, save_video, VidHeader};
        let container = vid_container(8, 6, 3);
        let req = vid_req("1,3,4,4", container.len());
        let clip = decode_vid_body(
            &req,
            &mut Cursor::new(&container),
            container.len() as u64,
            &vid_limits(),
        )
        .unwrap();
        assert_eq!(clip.shape().dims(), &[1, 3, 4, 4]);
        // Pin against the serial ingest reference decode of the same
        // container written to disk.
        let path =
            std::env::temp_dir().join(format!("p3d-wire-vid-test-{}.p3dvid", std::process::id()));
        let header = VidHeader::gray8(8, 6, 3, 30_000);
        let frame: Vec<u8> = (0..header.frame_bytes())
            .map(|i| (i * 7 + 3) as u8)
            .collect();
        save_video(&path, header, (0..3).map(|_| frame.as_slice())).unwrap();
        let reference = read_video_clips(
            &path,
            3,
            &p3d_video_data::io::PreprocessConfig::to_size(4, 4),
        )
        .unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(
            clip.data()
                .iter()
                .zip(reference[0].data().iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "wire decode differs from ingest reference"
        );
    }

    #[test]
    fn vid_body_rejects_geometry_and_framing_lies() {
        let container = vid_container(8, 6, 3);
        let n = container.len();
        // Shape D disagrees with the container's frame count.
        let req = vid_req("1,4,4,4", n);
        assert!(matches!(
            decode_vid_body(&req, &mut Cursor::new(&container), n as u64, &vid_limits()),
            Err(WireError::BadVideo(_))
        ));
        // Content-Length disagrees with the container geometry.
        let req = vid_req("1,3,4,4", n + 4);
        assert!(matches!(
            decode_vid_body(
                &req,
                &mut Cursor::new(&container),
                n as u64 + 4,
                &vid_limits()
            ),
            Err(WireError::BadVideo(_))
        ));
        // Multi-channel shapes have no video encoding.
        let req = vid_req("2,3,4,4", n);
        assert!(matches!(
            decode_vid_body(&req, &mut Cursor::new(&container), n as u64, &vid_limits()),
            Err(WireError::BadShape(_))
        ));
        // A corrupt payload byte fails the frame CRC.
        let mut bad = container.clone();
        bad[40] ^= 0x01;
        let req = vid_req("1,3,4,4", n);
        assert!(matches!(
            decode_vid_body(&req, &mut Cursor::new(&bad), n as u64, &vid_limits()),
            Err(WireError::BadVideo(_))
        ));
        // A truncated body surfaces as BadVideo, not a hang or panic.
        let req = vid_req("1,3,4,4", n);
        assert!(matches!(
            decode_vid_body(
                &req,
                &mut Cursor::new(&container[..n - 10]),
                n as u64,
                &vid_limits()
            ),
            Err(WireError::BadVideo(_))
        ));
        // An oversized decoded clip is capped before allocation.
        let req = vid_req("1,128,1024,1024", n);
        assert!(matches!(
            decode_vid_body(&req, &mut Cursor::new(&container), n as u64, &vid_limits()),
            Err(WireError::BodyTooLarge { .. })
        ));
    }

    #[test]
    fn response_writer_emits_well_formed_http() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", "application/json", b"{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let mut out = Vec::new();
        write_response(&mut out, 429, "Too Many Requests", "", b"", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Content-Length: 0\r\n"));
    }
}
