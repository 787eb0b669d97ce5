open Wire

let digest_len = 32

type batch_evidence = {
  root : string; (* 32-byte Merkle root over the batch's leaf bodies *)
  size : int; (* leaves under the root *)
  proof : Crypto.Merkle.proof; (* this leaf's inclusion proof *)
  root_sig : string; (* signer's signature over batch_body *)
}

type evidence =
  | Sig of string
  | Batch of batch_evidence
  | Mac of (int * string) list

(* A dispersed write's metadata: the coding parameters and the digest of
   every fragment. The write's [value] field holds the Merkle root over
   [digests], so the stamp and the evidence bind all fragment bytes
   without carrying them. *)
type dispersal_meta = {
  k : int; (* fragments needed to reconstruct *)
  m : int; (* fragments minted (= n at write time) *)
  total_length : int; (* original value length in bytes *)
  stripe : int; (* value bytes coded per stripe; a multiple of k *)
  digests : string list; (* 32-byte SHA-256 per fragment, index order *)
}

type write = {
  uid : Uid.t;
  stamp : Stamp.t;
  wctx : Context.t option;
  value : string;
  writer : string;
  evidence : evidence;
  frags : dispersal_meta option;
}

type ctx_record = { seq : int; ctx : Context.t; evidence : evidence }

let encode_dispersal_meta enc m =
  Codec.Enc.varint enc m.k;
  Codec.Enc.varint enc m.m;
  Codec.Enc.varint enc m.total_length;
  Codec.Enc.varint enc m.stripe;
  Codec.Enc.list enc (fun enc d -> Codec.Enc.fixed enc ~len:digest_len d)
    m.digests

let decode_dispersal_meta dec =
  let k = Codec.Dec.varint dec in
  let m = Codec.Dec.varint dec in
  let total_length = Codec.Dec.varint dec in
  let stripe = Codec.Dec.varint dec in
  let digests = Codec.Dec.list dec (fun dec -> Codec.Dec.fixed dec ~len:digest_len) in
  { k; m; total_length; stripe; digests }

(* Replicated writes keep the original "write" body byte-for-byte (their
   signatures and MACs must survive this codec change); dispersed writes
   get a domain-separated body that covers the coding descriptor, so no
   server or third party can reinterpret one as the other. *)
let write_body w =
  Codec.encode
    (fun enc () ->
      (match w.frags with
      | None -> Codec.Enc.string enc "write"
      | Some m ->
        Codec.Enc.string enc "write-dispersed";
        encode_dispersal_meta enc m);
      Uid.encode enc w.uid;
      Stamp.encode enc w.stamp;
      Codec.Enc.option enc Context.encode w.wctx;
      Codec.Enc.string enc w.value;
      Codec.Enc.string enc w.writer)
    ()

type batch_domain = Writes | Contexts

(* The batch signature binds root and size together: verification then
   derives the proof shape from the signed size, so no server can relabel
   a leaf's position without breaking the signature or the hash chain.
   The domain tag keeps a signed root of write bodies from ever standing
   for a batch of contexts, and the reverse. *)
let batch_body domain ~root ~size =
  Codec.encode
    (fun enc () ->
      Codec.Enc.string enc
        (match domain with Writes -> "write-batch" | Contexts -> "context-batch");
      Codec.Enc.varint enc size;
      Codec.Enc.fixed enc ~len:digest_len root)
    ()

(* A MAC binds the destination server id: a tag minted for server i is
   not a valid tag at server j even if the pairwise keys ever collided. *)
let mac_body ~server body =
  Codec.encode
    (fun enc () ->
      Codec.Enc.string enc "write-mac";
      Codec.Enc.varint enc server;
      Codec.Enc.string enc body)
    ()

let ctx_body ~client ~group ~seq ctx =
  Codec.encode
    (fun enc () ->
      Codec.Enc.string enc "context";
      Codec.Enc.string enc client;
      Codec.Enc.string enc group;
      Codec.Enc.varint enc seq;
      Context.encode enc ctx)
    ()

type request =
  | Ctx_read of { client : string; group : string }
  | Ctx_check of { client : string; group : string; known : string }
      (* a [Ctx_read] from a client already holding the record whose
         digest is [known]: a server storing that record answers
         [Ctx_same] instead of sending it back *)
  | Ctx_write of { client : string; records : (string * ctx_record) list }
  | Read_query of { uid : Uid.t; ship : bool }
  | Value_read of { uid : Uid.t; stamp : Stamp.t }
  | Write_req of write
  | Group_query of { group : string }
  | Gossip_push of {
      writes : write list;
      have : (Uid.t * Stamp.t) list;
      epoch : Config_epoch.t option;
          (* the pusher's config epoch, so anti-entropy also converges
             membership: a server that missed an epoch announcement
             (crashed, partitioned) catches up from any gossip peer *)
    }
  | Evidence_upgrade of {
      uid : Uid.t;
      stamp : Stamp.t;
      writer : string;
      evidence : evidence;
    }
  | Epoch_get  (* what epoch is this server on? (discovery) *)
  | Epoch_announce of Config_epoch.t  (* admin: install this epoch *)
  | Frag_put of {
      uid : Uid.t;
      stamp : Stamp.t;
      writer : string;
      index : int;  (* fragment index in [1, m] *)
      seq : int;  (* chunk number, 0-based, strictly sequential *)
      last : bool;  (* final chunk: the server seals and stores *)
      data : string;
    }
      (* one chunk of a fragment stream — large fragments arrive as
         several sequential Frag_puts so no single frame nears
         Frame.max_frame *)
  | Frag_get of { uid : Uid.t; stamp : Stamp.t; index : int; off : int; len : int }
      (* one chunk of a stored fragment: bytes [off, off+len) *)

type envelope = {
  token : string option;
  epoch : int;  (* sender's config-epoch version; 0 = static/legacy *)
  request : request;
}

type frag_chunk = { total : int; data : string }

type ctx_verdict = Stored | Refused of string

type response =
  | Ctx_reply of ctx_record option
  | Read_reply of {
      stamps : Stamp.t list;  (* current stamp first, then the logged ones *)
      writer_faulty : bool;
      write : write option;  (* the current write, when [ship] asked *)
    }
  | Value_reply of write option
  | Ack
  | Group_reply of write list
  | Denied of string
  | Epoch_reply of Config_epoch.t option
  | Stale_epoch of Config_epoch.t
      (* "your epoch is superseded" — carries the server's newer config
         so one round-trip both rejects and repairs the client *)
  | Frag_reply of frag_chunk option
      (* [Some] carries the requested byte range plus the fragment's
         full length; [None] means the server holds no such fragment *)
  | Ctx_same  (* answer to [Ctx_check]: I store exactly the known record *)
  | Ctx_written of ctx_verdict list  (* answer to [Ctx_write], per record *)

let encode_proof enc (p : Crypto.Merkle.proof) =
  Codec.Enc.varint enc p.index;
  Codec.Enc.list enc
    (fun enc (h, side) ->
      Codec.Enc.fixed enc ~len:digest_len h;
      Codec.Enc.bool enc (side = `Right))
    p.path

let decode_proof dec : Crypto.Merkle.proof =
  let index = Codec.Dec.varint dec in
  let path =
    Codec.Dec.list dec (fun dec ->
        let h = Codec.Dec.fixed dec ~len:digest_len in
        let right = Codec.Dec.bool dec in
        (h, if right then `Right else `Left))
  in
  { index; path }

let encode_evidence enc = function
  | Sig s ->
    Codec.Enc.u8 enc 0;
    Codec.Enc.string enc s
  | Batch { root; size; proof; root_sig } ->
    Codec.Enc.u8 enc 1;
    Codec.Enc.fixed enc ~len:digest_len root;
    Codec.Enc.varint enc size;
    encode_proof enc proof;
    Codec.Enc.string enc root_sig
  | Mac tags ->
    Codec.Enc.u8 enc 2;
    Codec.Enc.list enc
      (fun enc (sid, tag) ->
        Codec.Enc.varint enc sid;
        Codec.Enc.fixed enc ~len:digest_len tag)
      tags

let decode_evidence dec =
  match Codec.Dec.u8 dec with
  | 0 -> Sig (Codec.Dec.string dec)
  | 1 ->
    let root = Codec.Dec.fixed dec ~len:digest_len in
    let size = Codec.Dec.varint dec in
    let proof = decode_proof dec in
    let root_sig = Codec.Dec.string dec in
    Batch { root; size; proof; root_sig }
  | 2 ->
    Mac
      (Codec.Dec.list dec (fun dec ->
           let sid = Codec.Dec.varint dec in
           let tag = Codec.Dec.fixed dec ~len:digest_len in
           (sid, tag)))
  | _ -> raise (Codec.Error "bad evidence tag")

let encode_write enc w =
  Uid.encode enc w.uid;
  Stamp.encode enc w.stamp;
  Codec.Enc.option enc Context.encode w.wctx;
  Codec.Enc.string enc w.value;
  Codec.Enc.string enc w.writer;
  encode_evidence enc w.evidence;
  Codec.Enc.option enc encode_dispersal_meta w.frags

let decode_write dec =
  let uid = Uid.decode dec in
  let stamp = Stamp.decode dec in
  let wctx = Codec.Dec.option dec Context.decode in
  let value = Codec.Dec.string dec in
  let writer = Codec.Dec.string dec in
  let evidence = decode_evidence dec in
  let frags = Codec.Dec.option dec decode_dispersal_meta in
  { uid; stamp; wctx; value; writer; evidence; frags }

let encode_ctx_record enc r =
  Codec.Enc.varint enc r.seq;
  Context.encode enc r.ctx;
  encode_evidence enc r.evidence

let decode_ctx_record dec =
  let seq = Codec.Dec.varint dec in
  let ctx = Context.decode dec in
  let evidence = decode_evidence dec in
  { seq; ctx; evidence }

(* A record is named by a 128-bit prefix of the SHA-256 of its
   encoding: it only has to tell apart one client's own records, and a
   server can deny holding a record whatever the name's width. *)
let ctx_digest_len = 16

let ctx_record_digest r =
  String.sub (Crypto.Sha256.digest (Codec.encode encode_ctx_record r)) 0
    ctx_digest_len

let encode_request enc = function
  | Ctx_read { client; group } ->
    Codec.Enc.u8 enc 0;
    Codec.Enc.string enc client;
    Codec.Enc.string enc group
  | Ctx_write { client; records } ->
    Codec.Enc.u8 enc 1;
    Codec.Enc.string enc client;
    Codec.Enc.list enc
      (fun enc (group, record) ->
        Codec.Enc.string enc group;
        encode_ctx_record enc record)
      records
  | Read_query { uid; ship } ->
    Codec.Enc.u8 enc 2;
    Uid.encode enc uid;
    Codec.Enc.bool enc ship
  | Value_read { uid; stamp } ->
    Codec.Enc.u8 enc 3;
    Uid.encode enc uid;
    Stamp.encode enc stamp
  | Write_req write ->
    Codec.Enc.u8 enc 4;
    encode_write enc write
  | Group_query { group } ->
    Codec.Enc.u8 enc 6;
    Codec.Enc.string enc group
  | Gossip_push { writes; have; epoch } ->
    Codec.Enc.u8 enc 7;
    Codec.Enc.list enc encode_write writes;
    Codec.Enc.list enc
      (fun enc (uid, stamp) ->
        Uid.encode enc uid;
        Stamp.encode enc stamp)
      have;
    Codec.Enc.option enc Config_epoch.encode epoch
  | Evidence_upgrade { uid; stamp; writer; evidence } ->
    Codec.Enc.u8 enc 9;
    Uid.encode enc uid;
    Stamp.encode enc stamp;
    Codec.Enc.string enc writer;
    encode_evidence enc evidence
  | Epoch_get -> Codec.Enc.u8 enc 10
  | Epoch_announce e ->
    Codec.Enc.u8 enc 11;
    Config_epoch.encode enc e
  | Frag_put { uid; stamp; writer; index; seq; last; data } ->
    Codec.Enc.u8 enc 12;
    Uid.encode enc uid;
    Stamp.encode enc stamp;
    Codec.Enc.string enc writer;
    Codec.Enc.varint enc index;
    Codec.Enc.varint enc seq;
    Codec.Enc.bool enc last;
    Codec.Enc.string enc data
  | Frag_get { uid; stamp; index; off; len } ->
    Codec.Enc.u8 enc 13;
    Uid.encode enc uid;
    Stamp.encode enc stamp;
    Codec.Enc.varint enc index;
    Codec.Enc.varint enc off;
    Codec.Enc.varint enc len
  | Ctx_check { client; group; known } ->
    Codec.Enc.u8 enc 14;
    Codec.Enc.string enc client;
    Codec.Enc.string enc group;
    Codec.Enc.fixed enc ~len:ctx_digest_len known

let decode_request dec =
  match Codec.Dec.u8 dec with
  | 0 ->
    let client = Codec.Dec.string dec in
    let group = Codec.Dec.string dec in
    Ctx_read { client; group }
  | 1 ->
    let client = Codec.Dec.string dec in
    let records =
      Codec.Dec.list dec (fun dec ->
          let group = Codec.Dec.string dec in
          let record = decode_ctx_record dec in
          (group, record))
    in
    Ctx_write { client; records }
  | 2 ->
    let uid = Uid.decode dec in
    let ship = Codec.Dec.bool dec in
    Read_query { uid; ship }
  | 3 ->
    let uid = Uid.decode dec in
    let stamp = Stamp.decode dec in
    Value_read { uid; stamp }
  | 4 -> Write_req (decode_write dec)
  | 6 -> Group_query { group = Codec.Dec.string dec }
  | 7 ->
    let writes = Codec.Dec.list dec decode_write in
    let have =
      Codec.Dec.list dec (fun dec ->
          let uid = Uid.decode dec in
          let stamp = Stamp.decode dec in
          (uid, stamp))
    in
    let epoch = Codec.Dec.option dec Config_epoch.decode in
    Gossip_push { writes; have; epoch }
  | 9 ->
    let uid = Uid.decode dec in
    let stamp = Stamp.decode dec in
    let writer = Codec.Dec.string dec in
    let evidence = decode_evidence dec in
    Evidence_upgrade { uid; stamp; writer; evidence }
  | 10 -> Epoch_get
  | 11 -> Epoch_announce (Config_epoch.decode dec)
  | 12 ->
    let uid = Uid.decode dec in
    let stamp = Stamp.decode dec in
    let writer = Codec.Dec.string dec in
    let index = Codec.Dec.varint dec in
    let seq = Codec.Dec.varint dec in
    let last = Codec.Dec.bool dec in
    let data = Codec.Dec.string dec in
    Frag_put { uid; stamp; writer; index; seq; last; data }
  | 13 ->
    let uid = Uid.decode dec in
    let stamp = Stamp.decode dec in
    let index = Codec.Dec.varint dec in
    let off = Codec.Dec.varint dec in
    let len = Codec.Dec.varint dec in
    Frag_get { uid; stamp; index; off; len }
  | 14 ->
    let client = Codec.Dec.string dec in
    let group = Codec.Dec.string dec in
    let known = Codec.Dec.fixed dec ~len:ctx_digest_len in
    Ctx_check { client; group; known }
  | _ -> raise (Codec.Error "bad request tag")

let encode_envelope env =
  Codec.encode
    (fun enc () ->
      Codec.Enc.option enc Codec.Enc.string env.token;
      Codec.Enc.varint enc env.epoch;
      encode_request enc env.request)
    ()

let decode_envelope s =
  Codec.decode_opt
    (fun dec ->
      let token = Codec.Dec.option dec Codec.Dec.string in
      let epoch = Codec.Dec.varint dec in
      let request = decode_request dec in
      { token; epoch; request })
    s

let encode_response r =
  Codec.encode
    (fun enc () ->
      match r with
      | Ctx_reply record ->
        Codec.Enc.u8 enc 0;
        Codec.Enc.option enc encode_ctx_record record
      | Read_reply { stamps; writer_faulty; write } ->
        Codec.Enc.u8 enc 1;
        Codec.Enc.list enc Stamp.encode stamps;
        Codec.Enc.bool enc writer_faulty;
        Codec.Enc.option enc encode_write write
      | Value_reply w ->
        Codec.Enc.u8 enc 2;
        Codec.Enc.option enc encode_write w
      | Ack -> Codec.Enc.u8 enc 3
      | Group_reply writes ->
        Codec.Enc.u8 enc 5;
        Codec.Enc.list enc encode_write writes
      | Denied reason ->
        Codec.Enc.u8 enc 6;
        Codec.Enc.string enc reason
      | Epoch_reply e ->
        Codec.Enc.u8 enc 7;
        Codec.Enc.option enc Config_epoch.encode e
      | Stale_epoch e ->
        Codec.Enc.u8 enc 8;
        Config_epoch.encode enc e
      | Frag_reply chunk ->
        Codec.Enc.u8 enc 9;
        Codec.Enc.option enc
          (fun enc (total, data) ->
            Codec.Enc.varint enc total;
            Codec.Enc.string enc data)
          (match chunk with
          | None -> None
          | Some { total; data } -> Some (total, data))
      | Ctx_same -> Codec.Enc.u8 enc 10
      | Ctx_written verdicts ->
        Codec.Enc.u8 enc 11;
        Codec.Enc.list enc
          (fun enc -> function
            | Stored -> Codec.Enc.u8 enc 0
            | Refused reason ->
              Codec.Enc.u8 enc 1;
              Codec.Enc.string enc reason)
          verdicts)
    ()

let decode_response s =
  Codec.decode_opt
    (fun dec ->
      match Codec.Dec.u8 dec with
      | 0 -> Ctx_reply (Codec.Dec.option dec decode_ctx_record)
      | 1 ->
        let stamps = Codec.Dec.list dec Stamp.decode in
        let writer_faulty = Codec.Dec.bool dec in
        let write = Codec.Dec.option dec decode_write in
        Read_reply { stamps; writer_faulty; write }
      | 2 -> Value_reply (Codec.Dec.option dec decode_write)
      | 3 -> Ack
      | 5 -> Group_reply (Codec.Dec.list dec decode_write)
      | 6 -> Denied (Codec.Dec.string dec)
      | 7 -> Epoch_reply (Codec.Dec.option dec Config_epoch.decode)
      | 8 -> Stale_epoch (Config_epoch.decode dec)
      | 9 ->
        Frag_reply
          (Codec.Dec.option dec (fun dec ->
               let total = Codec.Dec.varint dec in
               let data = Codec.Dec.string dec in
               { total; data }))
      | 10 -> Ctx_same
      | 11 ->
        Ctx_written
          (Codec.Dec.list dec (fun dec ->
               match Codec.Dec.u8 dec with
               | 0 -> Stored
               | 1 -> Refused (Codec.Dec.string dec)
               | _ -> raise (Codec.Error "bad context verdict")))
      | _ -> raise (Codec.Error "bad response tag"))
    s
