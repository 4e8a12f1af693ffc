//! The traditional store-and-forward NFS server baseline.
//!
//! This is the system Figure 9 compares NASD against: a single server
//! machine owning all the disks (the paper used an AlphaStation 500/500
//! with eight Cheetahs behind two UltraSCSI busses), running a local
//! filesystem, with **every data byte flowing through the server**. The
//! functional plane here is an [`Ffs`] over a striped device; the
//! timing consequences (server CPU, NIC and bus saturation) are applied
//! by the Figure 9 harness.

use crate::drives::exclusive;
use crate::handle::{FileType, FmAttrs, FmError};
use bytes::Bytes;
use nasd_disk::{MemDisk, StripedDevice};
use nasd_ffs::{Ffs, FfsError, FileKind, InodeNo};
use nasd_net::{spawn_service, Rpc, ServiceHandle};

/// Requests to the NFS server. All file I/O flows through here — the
/// defining property of the store-and-forward architecture.
#[derive(Clone, Debug)]
pub enum ServerRequest {
    /// Resolve a path to a file id.
    Lookup(String),
    /// Create a file.
    Create(String),
    /// Create a directory.
    Mkdir(String),
    /// Remove a file or empty directory.
    Remove(String),
    /// Read through the server.
    Read {
        /// File id from lookup/create.
        ino: InodeNo,
        /// Byte offset.
        offset: u64,
        /// Bytes wanted.
        len: u64,
    },
    /// Write through the server.
    Write {
        /// File id from lookup/create.
        ino: InodeNo,
        /// Byte offset.
        offset: u64,
        /// Data to write.
        data: Bytes,
    },
    /// Stat a file.
    GetAttr(InodeNo),
    /// List a directory.
    Readdir(String),
    /// Flush everything to the disks.
    Sync,
}

/// NFS server replies.
#[derive(Clone, Debug)]
pub enum ServerResponse {
    /// A file id.
    Ino(InodeNo),
    /// File data.
    Data(Bytes),
    /// Bytes written.
    Written(u64),
    /// File attributes.
    Attrs(FmAttrs),
    /// Directory entries (name, is_dir).
    Names(Vec<(String, bool)>),
    /// Success without payload.
    Ok,
    /// Failure.
    Err(FmError),
}

fn map_err(e: FfsError) -> FmError {
    match e {
        FfsError::NotFound(n) => FmError::NotFound(n),
        FfsError::Exists(n) => FmError::Exists(n),
        FfsError::NotADirectory(n) => FmError::NotADirectory(n),
        FfsError::NotEmpty(n) => FmError::NotEmpty(n),
        FfsError::NoSpace => FmError::QuotaExceeded,
        FfsError::BadPath(n) => FmError::NotFound(n),
        FfsError::BadSuperblock | FfsError::Disk(_) => FmError::Transport,
    }
}

/// The store-and-forward NFS server over an FFS on striped disks.
pub struct NfsServer {
    fs: Ffs<StripedDevice<MemDisk>>,
}

impl NfsServer {
    /// Create a server striping over `ndisks` in-memory disks of
    /// `blocks_per_disk` 8 KB blocks (the paper's server had eight
    /// Cheetahs).
    ///
    /// # Errors
    ///
    /// Filesystem format failures.
    pub fn new(ndisks: usize, blocks_per_disk: u64) -> Result<Self, FmError> {
        let members = (0..ndisks)
            .map(|_| MemDisk::new(8192, blocks_per_disk))
            .collect();
        let device = StripedDevice::new(members);
        let fs = Ffs::format(device, 4_096).map_err(map_err)?;
        Ok(NfsServer { fs })
    }

    /// Handle one request.
    pub fn handle(&mut self, req: ServerRequest) -> ServerResponse {
        match self.handle_inner(req) {
            Ok(r) => r,
            Err(e) => ServerResponse::Err(e),
        }
    }

    fn attrs(&self, ino: InodeNo) -> Result<FmAttrs, FmError> {
        let st = self.fs.stat(ino).map_err(map_err)?;
        Ok(FmAttrs {
            file_type: match st.kind {
                FileKind::Directory => FileType::Directory,
                FileKind::File => FileType::Regular,
            },
            size: st.size,
            mtime: st.mtime,
            mode: 0o644,
            uid: 0,
        })
    }

    fn handle_inner(&mut self, req: ServerRequest) -> Result<ServerResponse, FmError> {
        match req {
            ServerRequest::Lookup(path) => {
                let ino = self.fs.lookup(&path).map_err(map_err)?;
                Ok(ServerResponse::Ino(ino))
            }
            ServerRequest::Create(path) => {
                let ino = self.fs.create(&path).map_err(map_err)?;
                Ok(ServerResponse::Ino(ino))
            }
            ServerRequest::Mkdir(path) => {
                let ino = self.fs.mkdir(&path).map_err(map_err)?;
                Ok(ServerResponse::Ino(ino))
            }
            ServerRequest::Remove(path) => {
                self.fs.unlink(&path).map_err(map_err)?;
                Ok(ServerResponse::Ok)
            }
            ServerRequest::Read { ino, offset, len } => {
                let data = self.fs.read(ino, offset, len).map_err(map_err)?;
                Ok(ServerResponse::Data(Bytes::from(data)))
            }
            ServerRequest::Write { ino, offset, data } => {
                self.fs.write(ino, offset, &data).map_err(map_err)?;
                Ok(ServerResponse::Written(data.len() as u64))
            }
            ServerRequest::GetAttr(ino) => Ok(ServerResponse::Attrs(self.attrs(ino)?)),
            ServerRequest::Readdir(path) => {
                let entries = self.fs.readdir(&path).map_err(map_err)?;
                let mut names = Vec::with_capacity(entries.len());
                for e in entries {
                    let st = self.fs.stat(e.ino).map_err(map_err)?;
                    names.push((e.name, st.kind == FileKind::Directory));
                }
                Ok(ServerResponse::Names(names))
            }
            ServerRequest::Sync => {
                self.fs.sync().map_err(map_err)?;
                Ok(ServerResponse::Ok)
            }
        }
    }

    /// Serve in-process, one request at a time (the single server
    /// machine).
    #[must_use]
    pub fn spawn(self) -> (Rpc<ServerRequest, ServerResponse>, ServiceHandle) {
        spawn_service(exclusive(self, Self::handle))
    }
}

impl std::fmt::Debug for NfsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NfsServer").field("fs", &self.fs).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasd_net::CallOptions;

    fn server() -> Rpc<ServerRequest, ServerResponse> {
        let (rpc, _h) = NfsServer::new(8, 2_048).unwrap().spawn();
        rpc
    }

    #[test]
    fn files_through_the_server() {
        let rpc = server();
        let ServerResponse::Ino(ino) = rpc
            .call_with(ServerRequest::Create("/f".into()), &CallOptions::blocking())
            .unwrap()
        else {
            panic!("create failed");
        };
        rpc.call_with(
            ServerRequest::Write {
                ino,
                offset: 0,
                data: Bytes::from_static(b"store and forward"),
            },
            &CallOptions::blocking(),
        )
        .unwrap();
        let ServerResponse::Data(d) = rpc
            .call_with(
                ServerRequest::Read {
                    ino,
                    offset: 6,
                    len: 3,
                },
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!("read failed");
        };
        assert_eq!(&d[..], b"and");
    }

    #[test]
    fn namespace_operations() {
        let rpc = server();
        rpc.call_with(ServerRequest::Mkdir("/d".into()), &CallOptions::blocking())
            .unwrap();
        rpc.call_with(
            ServerRequest::Create("/d/a".into()),
            &CallOptions::blocking(),
        )
        .unwrap();
        rpc.call_with(
            ServerRequest::Create("/d/b".into()),
            &CallOptions::blocking(),
        )
        .unwrap();
        let ServerResponse::Names(names) = rpc
            .call_with(
                ServerRequest::Readdir("/d".into()),
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!("readdir failed");
        };
        assert_eq!(names.len(), 2);
        rpc.call_with(
            ServerRequest::Remove("/d/a".into()),
            &CallOptions::blocking(),
        )
        .unwrap();
        let ServerResponse::Err(e) = rpc
            .call_with(
                ServerRequest::Lookup("/d/a".into()),
                &CallOptions::blocking(),
            )
            .unwrap()
        else {
            panic!("lookup should fail");
        };
        assert!(matches!(e, FmError::NotFound(_)));
    }

    #[test]
    fn concurrent_clients_serialize_at_server() {
        let rpc = server();
        let mut joins = Vec::new();
        for c in 0..4u64 {
            let rpc = rpc.clone();
            joins.push(std::thread::spawn(move || {
                let ServerResponse::Ino(ino) = rpc
                    .call_with(
                        ServerRequest::Create(format!("/c{c}")),
                        &CallOptions::blocking(),
                    )
                    .unwrap()
                else {
                    panic!("create failed");
                };
                rpc.call_with(
                    ServerRequest::Write {
                        ino,
                        offset: 0,
                        data: Bytes::from(vec![c as u8; 10_000]),
                    },
                    &CallOptions::blocking(),
                )
                .unwrap();
                let ServerResponse::Data(d) = rpc
                    .call_with(
                        ServerRequest::Read {
                            ino,
                            offset: 0,
                            len: 10_000,
                        },
                        &CallOptions::blocking(),
                    )
                    .unwrap()
                else {
                    panic!("read failed");
                };
                assert!(d.iter().all(|&b| b == c as u8));
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn sync_and_getattr() {
        let rpc = server();
        let ServerResponse::Ino(ino) = rpc
            .call_with(ServerRequest::Create("/s".into()), &CallOptions::blocking())
            .unwrap()
        else {
            panic!();
        };
        rpc.call_with(
            ServerRequest::Write {
                ino,
                offset: 0,
                data: Bytes::from(vec![0u8; 12345]),
            },
            &CallOptions::blocking(),
        )
        .unwrap();
        rpc.call_with(ServerRequest::Sync, &CallOptions::blocking())
            .unwrap();
        let ServerResponse::Attrs(a) = rpc
            .call_with(ServerRequest::GetAttr(ino), &CallOptions::blocking())
            .unwrap()
        else {
            panic!();
        };
        assert_eq!(a.size, 12345);
        assert_eq!(a.file_type, FileType::Regular);
    }
}
