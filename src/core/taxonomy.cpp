#include "core/taxonomy.hpp"

#include <algorithm>

#include "base/assert.hpp"

namespace platoon::core {

const char* to_string(Attribute a) {
    switch (a) {
        case Attribute::kAuthenticity: return "authenticity";
        case Attribute::kIntegrity: return "integrity";
        case Attribute::kAvailability: return "availability";
        case Attribute::kConfidentiality: return "confidentiality";
    }
    return "?";
}

const char* to_string(Asset a) {
    switch (a) {
        case Asset::kLeader: return "leader";
        case Asset::kMember: return "member";
        case Asset::kJoinLeave: return "join/leave";
        case Asset::kRsu: return "RSU";
        case Asset::kTrustedAuthority: return "trusted-authority";
        case Asset::kSensors: return "sensors";
        case Asset::kV2vLink: return "V2V";
        case Asset::kV2iLink: return "V2I";
    }
    return "?";
}

const char* to_string(AttackKind k) {
    switch (k) {
        case AttackKind::kSybil: return "sybil";
        case AttackKind::kFakeManeuver: return "fake-maneuver";
        case AttackKind::kReplay: return "replay";
        case AttackKind::kJamming: return "jamming";
        case AttackKind::kEavesdropping: return "eavesdropping";
        case AttackKind::kDenialOfService: return "denial-of-service";
        case AttackKind::kImpersonation: return "impersonation";
        case AttackKind::kSensorSpoofing: return "gps/sensor-spoofing";
        case AttackKind::kMalware: return "malware";
        default: return "?";
    }
}

const char* to_string(DefenseKind d) {
    switch (d) {
        case DefenseKind::kSecretPublicKeys: return "secret-and-public-keys";
        case DefenseKind::kRoadsideUnits: return "roadside-units";
        case DefenseKind::kControlAlgorithms: return "control-algorithms";
        case DefenseKind::kHybridCommunications: return "hybrid-communications";
        case DefenseKind::kOnboardSecurity: return "onboard-security";
        default: return "?";
    }
}

Taxonomy::Taxonomy() {
    using AK = AttackKind;
    using DK = DefenseKind;
    using At = Attribute;
    using As = Asset;

    attacks_ = {
        {AK::kSybil,
         {At::kAuthenticity},
         {As::kLeader, As::kMember, As::kRsu},
         "Attacker inside the platoon fabricates ghost vehicles that request "
         "to join; destabilises the platoon and blocks real joiners",
         "security::SybilAttack",
         "[3], [6]"},
        {AK::kFakeManeuver,
         {At::kIntegrity},
         {As::kMember, As::kRsu},
         "Forged join/leave/split requests break the platoon apart or open "
         "gaps for nonexistent vehicles",
         "security::FakeManeuverAttack",
         "[17], [32]"},
        {AK::kReplay,
         {At::kIntegrity},
         {As::kLeader, As::kMember, As::kJoinLeave, As::kRsu},
         "Old messages re-injected; members receive conflicting information "
         "and the platoon oscillates",
         "security::ReplayAttack",
         "[2], [10]"},
        {AK::kJamming,
         {At::kAvailability},
         {As::kV2vLink, As::kV2iLink},
         "Communication frequencies flooded with noise; members cannot "
         "communicate and the platoon disbands",
         "security::JammingAttack",
         "[2]"},
        {AK::kEavesdropping,
         {At::kConfidentiality},
         {As::kV2vLink, As::kV2iLink},
         "Attacker understands transmitted information; data theft and "
         "privacy violation",
         "security::EavesdropAttack",
         "[34]"},
        {AK::kDenialOfService,
         {At::kAvailability},
         {As::kJoinLeave, As::kRsu},
         "Join-request flood exhausts the admission table; users cannot "
         "join or create a platoon",
         "security::DosAttack",
         "[33]"},
        {AK::kImpersonation,
         {At::kIntegrity, At::kConfidentiality},
         {As::kLeader, As::kMember, As::kRsu, As::kTrustedAuthority},
         "Attacker poses as another individual using a stolen or forged ID; "
         "false representation and reputation damage",
         "security::ImpersonationAttack, security::RogueRsuAttack",
         "[6]"},
        {AK::kSensorSpoofing,
         {At::kAuthenticity, At::kAvailability},
         {As::kSensors},
         "GPS signals overpowered and sensors jammed/spoofed; false sensing "
         "feeds the controllers",
         "security::GpsSpoofAttack, security::SensorSpoofAttack",
         "[13], [31]"},
        {AK::kMalware,
         {At::kAvailability, At::kIntegrity},
         {As::kLeader, As::kMember, As::kRsu, As::kTrustedAuthority},
         "Compromised on-board computer prevents platooning or turns the "
         "vehicle into a lying insider (FDI, data theft, DoS)",
         "security::MalwareAttack",
         "[6], [13]"},
    };

    defenses_ = {
        // Exactly the paper's Table III "attack target" column. (The
        // measured matrix in bench_table3 shows keys also stop Sybil and
        // DoS -- a superset of the paper's mapping; see EXPERIMENTS.md.)
        {DK::kSecretPublicKeys,
         {AK::kEavesdropping, AK::kFakeManeuver, AK::kReplay},
         "Large-scale testing of key creation and distribution methods to "
         "compare effectiveness against cost",
         "crypto::MessageProtection (+ crypto::agree for fading keys)"},
        {DK::kRoadsideUnits,
         {AK::kImpersonation, AK::kFakeManeuver},
         "More research into RSU network security and identification of "
         "rogue RSUs",
         "rsu::RsuNode, rsu::TrustedAuthority"},
        {DK::kControlAlgorithms,
         {AK::kDenialOfService, AK::kSybil, AK::kReplay, AK::kFakeManeuver},
         "Where in the network is it most efficient to deploy and use the "
         "algorithms",
         "security::VpdAdaDetector, control::ControllerStack"},
        {DK::kHybridCommunications,
         {AK::kJamming, AK::kSybil, AK::kReplay, AK::kFakeManeuver},
         "The use of VLC and wireless radio communications between V2I is "
         "lacking",
         "security::HybridComms, net::Network (VLC/C-V2X bands)"},
        {DK::kOnboardSecurity,
         {AK::kMalware, AK::kSensorSpoofing},
         "Most effective means to deploy such security measures without "
         "affecting response",
         "security::GpsFusion, security::RadarFusion, "
         "security::OnboardHardening"},
    };

    surveys_ = {
        {"Isaac et al., 2010 [18]",
         "cryptography-related: anonymity, key management, privacy, "
         "reputation, location",
         {"brute force", "misbehaving & malicious vehicles",
          "traffic analysis", "illusion", "position forging",
          "sybil / false position dissemination"}},
        {"Checkoway et al., 2011 [21]",
         "by attacker range: indirect physical, short-range wireless, "
         "long-range wireless",
         {"CD-based malware", "bluetooth", "remote keyless entry",
          "infrared ID", "cellular", "tyre pressure sensors"}},
        {"AL-Kahtani et al., 2012 [12]",
         "by broken security requirement (integrity, authentication, "
         "availability, confidentiality)",
         {"bogus information", "DoS", "masquerading", "blackhole", "malware",
          "spamming", "timing", "GPS spoofing", "man-in-the-middle", "sybil",
          "wormhole", "illusion", "impersonation"}},
        {"Mejri et al., 2014 [22]",
         "by attribute: availability, authenticity, confidentiality, "
         "integrity, non-repudiation",
         {"DoS", "jamming", "greedy behaviour", "malware",
          "broadcast tampering", "blackhole", "spamming", "eavesdrop",
          "sybil", "GPS spoofing", "masquerade", "replay", "tunneling",
          "key/certificate replication", "position faking",
          "message alteration", "information gathering", "traffic analysis"}},
        {"Parkinson et al., 2017 [13]",
         "threats to vehicles, human aspects and infrastructure",
         {"sensor spoofing", "jamming and DoS", "malware", "FDI on CAN",
          "TPMS attacks", "information theft", "location tracking",
          "bad driver", "communication jamming", "password and key attacks",
          "phishing", "rogue updates"}},
        {"Zhaojun et al., 2018 [11]",
         "by attribute: availability, authenticity, confidentiality, "
         "integrity, non-repudiation",
         {"DoS", "jamming", "malware", "broadcast tampering",
          "black/grey hole", "greedy behaviour", "spamming", "eavesdrop",
          "traffic analysis", "sybil", "tunneling", "GPS spoofing",
          "freeriding", "message falsification", "masquerade", "replay",
          "repudiation"}},
        {"Harkness et al., 2020 [19]",
         "ITS risk assessment; test-bed security recommendations",
         {"sensor spoofing and jamming", "information theft", "eavesdropping",
          "malware on vehicles and infrastructure"}},
        {"Hussain et al., 2020 [20]",
         "trust management in VANETs (incl. REPLACE for platoons)",
         {"(trust management methods rather than attacks)"}},
    };
}

const Taxonomy& Taxonomy::instance() {
    static const Taxonomy taxonomy;
    return taxonomy;
}

const AttackEntry& Taxonomy::attack(AttackKind kind) const {
    const auto it =
        std::find_if(attacks_.begin(), attacks_.end(),
                     [kind](const AttackEntry& e) { return e.kind == kind; });
    PLATOON_ASSERT(it != attacks_.end());
    return *it;
}

const DefenseEntry& Taxonomy::defense(DefenseKind kind) const {
    const auto it =
        std::find_if(defenses_.begin(), defenses_.end(),
                     [kind](const DefenseEntry& e) { return e.kind == kind; });
    PLATOON_ASSERT(it != defenses_.end());
    return *it;
}

bool Taxonomy::mitigates(DefenseKind defense, AttackKind attack) const {
    const auto& entry = this->defense(defense);
    return std::find(entry.mitigates.begin(), entry.mitigates.end(), attack) !=
           entry.mitigates.end();
}

}  // namespace platoon::core
