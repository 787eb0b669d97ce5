(* Fragmentation-scattering and threshold secrets — the complementary
   techniques the paper cites (section 3: Fray et al., Rabin) built on
   the same store.

   Scenario: a family vault. Large documents are dispersed across n=7
   servers so that no single server (not even with its disk stolen)
   holds a reconstructable copy, reads survive b=2 bad servers, and the
   vault's master key itself is never stored anywhere — it is split
   among 5 trustees with a 3-of-5 Shamir threshold.

     dune exec examples/estate_vault.exe *)

let printf = Printf.printf

let () =
  let n = 7 and b = 2 in
  let keyring = Store.Keyring.create () in
  let owner = Crypto.Rsa.generate (Crypto.Prng.create ~seed:"owner") in
  Store.Keyring.register keyring "owner" owner.Crypto.Rsa.public;
  let servers = Array.init n (fun id -> Store.Server.create ~id ~keyring ~n ~b ()) in
  let hmap = Array.map Store.Server.handler servers in
  (* Two faulty servers: one crashed, one corrupting everything. *)
  hmap.(2) <- Store.Faults.wrap Store.Faults.Crash servers.(2);
  hmap.(5) <- Store.Faults.wrap Store.Faults.Corrupt_value servers.(5);
  let handlers dst ~from request =
    if dst >= 0 && dst < n then hmap.(dst) ~now:0.0 ~from request else None
  in

  (* 1. The vault master key exists only in trustee shares. *)
  let master_key = "vault-master-key-0123456789abcdef" in
  let trustee_rng = Crypto.Prng.create ~seed:"trustee-shares" in
  let shares = Crypto.Shamir.split trustee_rng ~threshold:3 ~shares:5 master_key in
  printf "master key split into %d trustee shares (any 3 recover it)\n"
    (List.length shares);
  (match
     Crypto.Shamir.combine ~threshold:3
       [ List.nth shares 0; List.nth shares 1 ]
   with
  | None -> printf "two trustees alone recover nothing\n"
  | Some _ -> printf "BUG: threshold violated\n");

  (* 2. Three trustees convene and unlock the vault. *)
  let recovered =
    match
      Crypto.Shamir.combine ~threshold:3
        [ List.nth shares 4; List.nth shares 1; List.nth shares 3 ]
    with
    | Some k -> k
    | None -> failwith "reconstruction failed"
  in
  assert (recovered = master_key);
  printf "trustees 2, 4 and 5 reconstructed the vault key\n";

  (* 3. Documents are encrypted under the vault key, and the session
     disperses any value of at least [dispersal_threshold] bytes: the
     ciphertext is coded into n fragments of which any b+1 reconstruct,
     server i stores only fragment i+1, and only a small descriptor goes
     through the replicated metadata write. *)
  let deed = String.concat "\n" (List.init 200 (fun i ->
      Printf.sprintf "deed clause %d: lorem ipsum dolor sit amet" i))
  in
  let config =
    { (Store.Client.default_config ~n ~b) with Store.Client.dispersal_threshold = 1024 }
  in
  let vault ~key =
    match
      Store.Client.connect ~config ~uid:"owner" ~key:owner ~keyring ~group:"estate" ()
    with
    | Ok client -> Store.Confidential.make ~client ~key ()
    | Error e -> failwith (Store.Client.error_to_string e)
  in
  Sim.Direct.run ~handlers (fun () ->
      let v = vault ~key:recovered in
      (match Store.Confidential.write v ~item:"deed" deed with
      | Ok () -> printf "deed dispersed: %d fragments, any %d reconstruct\n" n (b + 1)
      | Error e -> failwith (Store.Client.error_to_string e));

      (* What the servers actually hold. *)
      let held =
        Array.fold_left (fun acc s -> max acc (Store.Server.storage_bytes s)) 0 servers
      in
      if 2 * held < String.length deed then
        printf "no server holds more than %d encrypted bytes of the %d-byte deed\n"
          held (String.length deed)
      else
        printf "BUG: a server holds %d bytes of a %d-byte deed\n" held
          (String.length deed);

      (* 4. Reading works despite the crash and the corrupter. *)
      match Store.Confidential.read v ~item:"deed" with
      | Ok d when d = deed ->
        printf "deed reconstructed intact through %d faulty servers\n" 2
      | Ok _ -> printf "BUG: reconstructed garbage\n"
      | Error e -> failwith (Store.Client.error_to_string e));

  (* 5. Without the key, fragments are useless even all together. *)
  Sim.Direct.run ~handlers (fun () ->
      match Store.Confidential.read_opt (vault ~key:"guessed-wrong") ~item:"deed" with
      | Ok None -> printf "an attacker with every fragment but no key gets nothing\n"
      | Ok (Some _) -> printf "BUG: key did not matter\n"
      | Error e -> failwith (Store.Client.error_to_string e));
  printf "estate_vault ok\n"
